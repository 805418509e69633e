//! R3 `lock-discipline`: extract lock acquisition sites per function,
//! build the static lock-order graph, and flag (a) cycles in that graph
//! and (b) functions that hold a guard across a call into another
//! workspace function that itself acquires locks.
//!
//! The analysis is name-based and lint-grade: a lock is identified by the
//! receiver field it is acquired through (`self.directory.write()` →
//! `pga-minibase/directory`), guards are tracked from `let` bindings to
//! the end of the enclosing block (or an explicit `drop(guard)`) unless
//! the lock's result feeds a further method call, which makes the guard a
//! temporary of its statement (`self.observer.read().clone()`), and the
//! call graph resolves callee names only within the same crate, minus a
//! stoplist of std-colliding method names.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CALL_STOPLIST, NON_CALL_KEYWORDS};
use crate::rules::{Rule, Violation, Workspace};
use crate::tokenizer::{Token, TokenKind};

/// Method names that acquire a lock when called with no arguments.
const LOCK_OPS: &[&str] = &["lock", "read", "write"];

/// Methods whose result is still the guard of the lock op they follow
/// (as is `?`'s).
const GUARD_PASSING: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// One acquisition, in-function edge, or call observed in pass A.
#[derive(Debug)]
struct FnFacts {
    krate: String,
    name: String,
    /// Locks acquired directly in this function: (lock, file, line).
    acquires: Vec<(String, String, u32)>,
    /// Ordered pairs observed in-function: guard held → new lock.
    edges: Vec<(String, String, String, u32)>,
    /// Calls made: (callee, file, line, locks held at the call site).
    calls: Vec<(String, String, u32, Vec<String>)>,
}

/// A live `let`-bound guard.
struct Guard {
    binding: String,
    lock: String,
    depth: i32,
}

/// Walk backwards from token `dot` (a `.` preceding a lock op), skipping
/// one balanced `)`/`]` group, to find the receiver field name.
fn receiver_name(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot.checked_sub(1)?;
    loop {
        let t = &tokens[i];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the balanced group backwards.
            let close = if t.is_punct(')') { ')' } else { ']' };
            let open = if t.is_punct(')') { '(' } else { '[' };
            let mut depth = 0i32;
            loop {
                if tokens[i].is_punct(close) {
                    depth += 1;
                } else if tokens[i].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i = i.checked_sub(1)?;
            }
            i = i.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// Is the acquisition whose receiver chain ends at `dot` bound by a `let`?
/// Scans a short window backwards without crossing a statement boundary.
fn is_let_bound(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot;
    let mut binding = None;
    for _ in 0..16 {
        i = i.checked_sub(1)?;
        let t = &tokens[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            return binding;
        }
        if t.kind == TokenKind::Ident && !t.is_ident("mut") {
            binding = Some(t.text.clone());
        }
    }
    None
}

/// Does the result of the lock op whose argument list closes at token
/// `close` feed a further method call (`self.observer.read().clone()`)?
/// Its guard is then a temporary, dropped at the end of its statement, so
/// a `let` binds the call's result and holds no lock. `?`, `unwrap`,
/// `expect` and `unwrap_or_else` hand the guard on: a call may follow
/// them, and without one the guard is what is bound.
fn feeds_method_call(tokens: &[Token], close: usize) -> bool {
    let mut i = close + 1;
    loop {
        match tokens.get(i) {
            Some(t) if t.is_punct('?') => i += 1,
            Some(t) if t.is_punct('.') => {
                let (Some(name), Some(open)) = (tokens.get(i + 1), tokens.get(i + 2)) else {
                    return false;
                };
                if name.kind != TokenKind::Ident || !open.is_punct('(') {
                    return false; // a field, or a method named with a turbofish
                }
                if !GUARD_PASSING.contains(&name.text.as_str()) {
                    return true;
                }
                // Past the balanced argument list.
                let mut depth = 0i32;
                i += 2;
                loop {
                    let Some(t) = tokens.get(i) else {
                        return false;
                    };
                    if t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                i += 1;
            }
            _ => return false,
        }
    }
}

/// Pass A: extract per-function lock facts from every file.
fn collect_facts(ws: &Workspace) -> Vec<FnFacts> {
    let mut all = Vec::new();
    for f in &ws.files {
        let toks = &f.lexed.tokens;
        for span in &f.fns {
            if f.is_test_line(span.line) {
                continue;
            }
            let mut facts = FnFacts {
                krate: f.krate.clone(),
                name: span.name.clone(),
                acquires: Vec::new(),
                edges: Vec::new(),
                calls: Vec::new(),
            };
            let mut guards: Vec<Guard> = Vec::new();
            let mut depth = 0i32;
            let mut i = span.body_start;
            while i < span.body_end {
                let t = &toks[i];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                } else if t.kind == TokenKind::Ident {
                    // `drop(guard)` releases early.
                    if t.is_ident("drop")
                        && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                    {
                        if let Some(arg) = toks.get(i + 2) {
                            guards.retain(|g| g.binding != arg.text);
                        }
                        i += 1;
                        continue;
                    }
                    // Lock acquisition: `.lock()` / `.read()` / `.write()`
                    // with empty argument list.
                    let is_lock_op = LOCK_OPS.contains(&t.text.as_str())
                        && i >= 1
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                        && toks.get(i + 2).map(|n| n.is_punct(')')).unwrap_or(false);
                    if is_lock_op {
                        if let Some(recv) = receiver_name(toks, i - 1) {
                            let lock = format!("{}/{}", f.krate, recv);
                            for g in &guards {
                                if g.lock != lock {
                                    facts.edges.push((
                                        g.lock.clone(),
                                        lock.clone(),
                                        f.path.clone(),
                                        t.line,
                                    ));
                                }
                            }
                            facts.acquires.push((lock.clone(), f.path.clone(), t.line));
                            let bound = match feeds_method_call(toks, i + 2) {
                                true => None,
                                false => is_let_bound(toks, i - 1),
                            };
                            if let Some(binding) = bound {
                                guards.push(Guard {
                                    binding,
                                    lock,
                                    depth,
                                });
                            }
                        }
                        i += 3;
                        continue;
                    }
                    // Call site: `name(` that is not a macro, keyword, or
                    // lock op.
                    let is_call = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                        && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                        && !LOCK_OPS.contains(&t.text.as_str());
                    if is_call {
                        let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
                        facts
                            .calls
                            .push((t.text.clone(), f.path.clone(), t.line, held));
                    }
                }
                i += 1;
            }
            all.push(facts);
        }
    }
    all
}

/// Directed lock-order graph with one witness site per edge.
type EdgeMap = BTreeMap<(String, String), (String, u32)>;

/// Find one representative of each distinct cycle (canonicalised by its
/// node set) via DFS with an explicit path stack.
fn find_cycles(edges: &EdgeMap) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut cycles = Vec::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<Vec<&str>> = vec![adj.get(start).cloned().unwrap_or_default()];
        while let Some(frontier) = stack.last_mut() {
            let Some(next) = frontier.pop() else {
                path.pop();
                stack.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let mut cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                let mut canon = cycle.clone();
                canon.sort();
                if seen_cycles.insert(canon) {
                    cycle.push(next.to_string());
                    cycles.push(cycle);
                }
                continue;
            }
            if path.len() < 16 {
                path.push(next);
                stack.push(adj.get(next).cloned().unwrap_or_default());
            }
        }
    }
    cycles
}

pub struct LockDiscipline;

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let facts = collect_facts(ws);

        // Pass B step 1: direct acquire sets per (crate, fn name). A name
        // defined more than once in a crate (`scan` on Region, Client,
        // Memstore, StoreFile…) is ambiguous — resolving it would merge
        // unrelated functions and fabricate lock edges, so such callees
        // are skipped everywhere below.
        let mut def_count: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in &facts {
            *def_count
                .entry((f.krate.clone(), f.name.clone()))
                .or_default() += 1;
        }
        let unique = |krate: &str, name: &str| {
            def_count.get(&(krate.to_string(), name.to_string())) == Some(&1)
        };
        let mut direct: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
        for f in &facts {
            let entry = direct.entry((f.krate.clone(), f.name.clone())).or_default();
            for (lock, _, _) in &f.acquires {
                entry.insert(lock.clone());
            }
        }

        // Step 2: transitive closure over the same-crate call graph.
        let mut trans = direct.clone();
        loop {
            let mut changed = false;
            for f in &facts {
                let mut gained: Vec<String> = Vec::new();
                for (callee, _, _, _) in &f.calls {
                    if CALL_STOPLIST.contains(&callee.as_str()) || !unique(&f.krate, callee) {
                        continue;
                    }
                    if let Some(locks) = trans.get(&(f.krate.clone(), callee.clone())) {
                        gained.extend(locks.iter().cloned());
                    }
                }
                let entry = trans.entry((f.krate.clone(), f.name.clone())).or_default();
                for l in gained {
                    changed |= entry.insert(l);
                }
            }
            if !changed {
                break;
            }
        }

        // Step 3: nested-guard-across-call violations + cross-call edges.
        let mut edges: EdgeMap = BTreeMap::new();
        for f in &facts {
            for (from, to, file, line) in &f.edges {
                edges
                    .entry((from.clone(), to.clone()))
                    .or_insert_with(|| (file.clone(), *line));
            }
            for (callee, file, line, held) in &f.calls {
                if held.is_empty()
                    || CALL_STOPLIST.contains(&callee.as_str())
                    || !unique(&f.krate, callee)
                {
                    continue;
                }
                let Some(callee_locks) = trans.get(&(f.krate.clone(), callee.clone())) else {
                    continue;
                };
                let reached: Vec<&String> =
                    callee_locks.iter().filter(|l| !held.contains(l)).collect();
                if reached.is_empty() {
                    continue;
                }
                out.push(Violation {
                    rule: self.id(),
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "`{}` holds guard on {} across call to `{}`, which acquires {}; shrink the guard scope or document the ordering",
                        f.name,
                        held.join(", "),
                        callee,
                        reached
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                });
                for h in held {
                    for r in &reached {
                        edges
                            .entry((h.clone(), (*r).clone()))
                            .or_insert_with(|| (file.clone(), *line));
                    }
                }
            }
        }

        // Step 4: cycles in the union graph.
        for cycle in find_cycles(&edges) {
            let (file, line) = edges
                .get(&(cycle[0].clone(), cycle[1].clone()))
                .cloned()
                .unwrap_or_else(|| ("<unknown>".into(), 0));
            out.push(Violation {
                rule: self.id(),
                file,
                line,
                message: format!(
                    "lock-order cycle: {}; establish a single acquisition order",
                    cycle.join(" -> ")
                ),
            });
        }
    }
}
