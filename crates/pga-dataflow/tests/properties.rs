//! Property tests: a dataflow `map` agrees with its sequential `Vec`
//! counterpart regardless of partitioning and worker count.

use proptest::prelude::*;

use pga_dataflow::Dataflow;

fn data() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1000i64..1000, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_equals_sequential(d in data(), workers in 1usize..6, parts in 1usize..9) {
        let df = Dataflow::new(workers);
        let got = df.parallelize(d.clone(), parts).map(|x| x * 3 - 1).collect();
        let expect: Vec<i64> = d.iter().map(|x| x * 3 - 1).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn count_is_preserved_through_partitioning(d in data(), parts in 1usize..16) {
        // `parallelize` makes exactly `parts` partitions, and a `map` runs
        // one task for each, empty or not.
        let df = Dataflow::new(3);
        let got = df.parallelize(d.clone(), parts).map(|x| x).collect();
        prop_assert_eq!(got.len(), d.len());
        prop_assert_eq!(df.stats().tasks_run, parts as u64);
    }
}
