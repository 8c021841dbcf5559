//! The `lock-order` static pass: an interprocedural approximation of the
//! runtime lockdep checker (`phoebe_common::sync::lockdep`), run over the
//! kernel crates by `cargo xtask lint-kernel`.
//!
//! Three things are checked / produced:
//!
//! 1. **Unranked locks.** Any raw `Mutex::new` / `RwLock::new`
//!    construction in a kernel crate is flagged: kernel locks must be
//!    built through `RankedMutex` / `RankedRwLock` (or `HybridLatch`,
//!    which wraps one) so they participate in the rank order. The only
//!    legitimate exceptions (e.g. an `std` mutex serializing an `mpsc`
//!    receiver that is never held across kernel locks) carry a
//!    `LINT-ALLOW(lock-order)` waiver.
//! 2. **Descending acquisition paths.** Each construction site declares
//!    `(Rank, class)`; the pass maps field names to rank candidates,
//!    replays every function body tracking live guard bindings (the same
//!    brace-depth model as the guard-across-await rule), and summarizes
//!    which classes each function acquires. Summaries are propagated to a
//!    fixpoint over a name-matched call graph, so a function that locks a
//!    high rank and then calls into a helper that locks a low rank is
//!    reported even though no single line shows both locks.
//! 3. **The discovered order**, as a dot-format graph (`held → acquired`
//!    edges, dashed when the acquisition is via a callee), written to
//!    `target/lockorder.dot` by `main` and uploaded as a CI artifact.
//!
//! The pass is deliberately conservative about names: a field name that
//! maps to several classes (`map`, `state`, `free` all repeat across
//! crates) is treated as the *set* of candidate classes, and a descent is
//! only reported when every interpretation descends — the held side uses
//! its minimum candidate rank, the acquired side its maximum. Anything
//! the name-matcher cannot prove is left to the runtime checker, which
//! sees exact lock identities. The two checkers share one rank table:
//! `Rank::ALL` from `phoebe-common`.

use crate::lint::{has_word, scan, waived, ScanLine, Violation};
use phoebe_common::sync::Rank;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Analysis over one set of kernel sources.
pub struct Analysis {
    /// (repo-relative path, violation) pairs, in file/line order.
    pub violations: Vec<(String, Violation)>,
    /// (repo-relative path, 1-based line) of each `LINT-ALLOW(lock-order)`
    /// waiver that suppressed something.
    pub used_waivers: Vec<(String, usize)>,
    /// Declared lock classes (name, rank), ascending by rank then name.
    pub classes: Vec<(String, Rank)>,
    /// The discovered order as a dot-format digraph.
    pub dot: String,
}

/// A declared lock class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Class(usize);

/// One tracked live guard inside a function body.
struct Guard {
    binding: Option<String>,
    candidates: Vec<Class>,
    depth: i64,
    line: usize,
}

/// A lock acquisition or a call observed while walking a function body,
/// with a snapshot of the guards live at that point.
enum Event {
    Acquire { candidates: Vec<Class>, line: usize, held: Vec<(Vec<Class>, usize)> },
    Call { callee: String, line: usize, held: Vec<(Vec<Class>, usize)> },
}

struct FnBody {
    name: String,
    file: usize,
    events: Vec<Event>,
}

/// Method names never treated as kernel calls: ubiquitous std/trait
/// vocabulary whose name-match would drag unrelated summaries in (e.g.
/// every `.write()` is not the hybrid latch), plus the guard-producing
/// calls themselves and the condvar projections on ranked guards.
const CALL_DENYLIST: [&str; 40] = [
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "len",
    "is_empty",
    "lock",
    "read",
    "write",
    "try_lock",
    "try_read",
    "try_write",
    "upgradable_read",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "next",
    "send",
    "recv",
    "wait",
    "wait_for",
    "take",
    "iter",
    "contains",
    "extend",
    "clear",
    "load",
    "store",
    "swap",
    "min",
    "max",
    "flush",
    "sync",
    "run",
    "tick",
    "index",
];

const GUARD_CALLS: [&str; 6] =
    [".lock()", ".read()", ".write()", ".try_lock()", ".try_read()", ".try_write()"];

/// Run the pass over `files`: (repo-relative path, source text) pairs.
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let scanned: Vec<Vec<ScanLine>> = files.iter().map(|(_, src)| scan(src)).collect();

    // ---- Pass 1: lock-class declarations ---------------------------------
    // `name: RankedMutex::new(Rank::X, "class", ...)` (or RankedRwLock /
    // let-bound), possibly spanning lines, maps field/binding `name` to the
    // class. `HybridLatch::new` construction sites map to the latch's fixed
    // class. `classes` is keyed by class name; `fields` maps a field name to
    // every class it might denote.
    let mut class_ids: BTreeMap<(u8, String), Class> = BTreeMap::new();
    let mut class_list: Vec<(String, Rank)> = Vec::new();
    let mut fields: HashMap<String, BTreeSet<Class>> = HashMap::new();
    let mut violations: Vec<(String, Violation)> = Vec::new();
    let mut used: Vec<(String, usize)> = Vec::new();

    let mut intern = |name: &str, rank: Rank, list: &mut Vec<(String, Rank)>| -> Class {
        *class_ids.entry((rank as u8, name.to_string())).or_insert_with(|| {
            list.push((name.to_string(), rank));
            Class(list.len() - 1)
        })
    };

    for (fi, (path, source)) in files.iter().enumerate() {
        let raw: Vec<&str> = source.lines().collect();
        let lines = &scanned[fi];
        for idx in 0..lines.len() {
            let code = lines[idx].code.as_str();
            let ranked = ["RankedMutex::new(", "RankedRwLock::new("]
                .iter()
                .find_map(|t| code.find(t).map(|p| (p, *t)));
            let latch = code.find("HybridLatch::new(");
            let (pos, class) = if let Some((pos, _)) = ranked {
                // Rank token and class string may sit on the next lines; the
                // raw (unblanked) window keeps the string literal visible.
                let window = raw[idx..raw.len().min(idx + 5)].join(" ");
                let Some((rank_name, after_rank)) = extract_rank(&window) else {
                    violations.push((
                        path.clone(),
                        Violation {
                            line: idx + 1,
                            rule: "lock-order",
                            msg: format!(
                                "{path}:{}: ranked lock constructed without a parseable \
                                 `Rank::<Name>` first argument",
                                idx + 1
                            ),
                        },
                    ));
                    continue;
                };
                let Some(rank) = Rank::ALL.iter().copied().find(|r| r.as_str() == rank_name) else {
                    violations.push((
                        path.clone(),
                        Violation {
                            line: idx + 1,
                            rule: "lock-order",
                            msg: format!(
                                "{path}:{}: `Rank::{rank_name}` is not a declared rank",
                                idx + 1
                            ),
                        },
                    ));
                    continue;
                };
                let class_name = extract_str(after_rank)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("<anon {path}:{}>", idx + 1));
                (pos, intern(&class_name, rank, &mut class_list))
            } else if let Some(pos) = latch {
                (pos, intern("latch.frame", Rank::FrameMeta, &mut class_list))
            } else {
                continue;
            };
            if let Some(field) = field_before(&code[..pos]) {
                fields.entry(field).or_default().insert(class);
            }
        }
    }

    // ---- Pass 2: unranked constructions + per-function event streams -----
    let mut bodies: Vec<FnBody> = Vec::new();
    for (fi, (path, _)) in files.iter().enumerate() {
        let lines = &scanned[fi];

        // Unranked raw locks. `has_word` is boundary-checked, so
        // `RankedMutex::new` (preceded by `d`) does not match.
        for (idx, line) in lines.iter().enumerate() {
            let code = line.code.as_str();
            if has_word(code, "Mutex::new") || has_word(code, "RwLock::new") {
                if let Some(w) = waived(lines, idx, "lock-order") {
                    used.push((path.clone(), w));
                } else {
                    violations.push((
                        path.clone(),
                        Violation {
                            line: idx + 1,
                            rule: "lock-order",
                            msg: format!(
                                "{path}:{}: raw lock constructed without a declared rank — \
                                 use `RankedMutex`/`RankedRwLock` with a `Rank`, or waive \
                                 with LINT-ALLOW(lock-order) if it provably never nests \
                                 with kernel locks",
                                idx + 1
                            ),
                        },
                    ));
                }
            }
        }

        bodies.extend(walk_functions(fi, lines, &fields));
    }

    // ---- Pass 3: fixpoint of transitive acquire-sets over the call graph -
    // A function's summary is the max-rank representative of each class it
    // may acquire, directly or through callees. Same-named functions are
    // merged (the name-matcher cannot tell `a.release()` from `b.release()`).
    let mut defined: HashMap<&str, Vec<usize>> = HashMap::new();
    for (bi, b) in bodies.iter().enumerate() {
        defined.entry(&b.name).or_default().push(bi);
    }
    let mut summary: HashMap<&str, BTreeSet<Class>> = HashMap::new();
    for b in &bodies {
        let set = summary.entry(&b.name).or_default();
        for ev in &b.events {
            if let Event::Acquire { candidates, .. } = ev {
                if let Some(rep) = max_rank_rep(candidates, &class_list) {
                    set.insert(rep);
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for b in &bodies {
            let mut add = BTreeSet::new();
            for ev in &b.events {
                if let Event::Call { callee, .. } = ev {
                    if let Some(s) = summary.get(callee.as_str()) {
                        add.extend(s.iter().copied());
                    }
                }
            }
            let set = summary.entry(&b.name).or_default();
            let before = set.len();
            set.extend(add);
            changed |= set.len() != before;
        }
        if !changed {
            break;
        }
    }

    // ---- Pass 4: descending-path detection + order graph -----------------
    // Certainty rule: held side uses its *minimum* candidate rank, acquired
    // side its *maximum* — a report means every name interpretation
    // descends. Equal ranks are left to the runtime checker (self-nesting
    // and cross-class equal ranks are legal there).
    let mut direct_edges: BTreeSet<(Class, Class)> = BTreeSet::new();
    let mut call_edges: BTreeSet<(Class, Class)> = BTreeSet::new();
    let rank_of = |c: Class| class_list[c.0].1 as u8;
    for b in &bodies {
        let (path, _) = &files[b.file];
        let lines = &scanned[b.file];
        for ev in &b.events {
            match ev {
                Event::Acquire { candidates, line, held } => {
                    let Some(acq) = max_rank_rep(candidates, &class_list) else { continue };
                    for (held_cands, held_line) in held {
                        let Some(h) = min_rank_rep(held_cands, &class_list) else { continue };
                        direct_edges.insert((h, acq));
                        if rank_of(h) > rank_of(acq) {
                            report_descent(
                                path,
                                lines,
                                *line,
                                &class_list,
                                h,
                                *held_line,
                                acq,
                                None,
                                &mut violations,
                                &mut used,
                            );
                        }
                    }
                }
                Event::Call { callee, line, held } => {
                    if held.is_empty() {
                        continue;
                    }
                    let Some(acqs) = summary.get(callee.as_str()) else { continue };
                    for acq in acqs {
                        for (held_cands, held_line) in held {
                            let Some(h) = min_rank_rep(held_cands, &class_list) else { continue };
                            call_edges.insert((h, *acq));
                            if rank_of(h) > rank_of(*acq) {
                                report_descent(
                                    path,
                                    lines,
                                    *line,
                                    &class_list,
                                    h,
                                    *held_line,
                                    *acq,
                                    Some(callee),
                                    &mut violations,
                                    &mut used,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    violations.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));
    violations.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.msg == b.1.msg);
    used.sort();
    used.dedup();

    let dot = render_dot(&class_list, &direct_edges, &call_edges);
    Analysis { violations, used_waivers: used, classes: class_list, dot }
}

#[allow(clippy::too_many_arguments)]
fn report_descent(
    path: &str,
    lines: &[ScanLine],
    line: usize,
    classes: &[(String, Rank)],
    held: Class,
    held_line: usize,
    acq: Class,
    via: Option<&str>,
    violations: &mut Vec<(String, Violation)>,
    used: &mut Vec<(String, usize)>,
) {
    if let Some(w) = waived(lines, line - 1, "lock-order") {
        used.push((path.to_string(), w));
        return;
    }
    let (hn, hr) = &classes[held.0];
    let (an, ar) = &classes[acq.0];
    let how = match via {
        Some(callee) => format!("call to `{callee}()` may acquire \"{an}\" ({ar})"),
        None => format!("acquires \"{an}\" ({ar})"),
    };
    violations.push((
        path.to_string(),
        Violation {
            line,
            rule: "lock-order",
            msg: format!(
                "{path}:{line}: {how} while the guard on \"{hn}\" ({hr}) from line \
                 {held_line} is still live — ranks must not descend \
                 (see DESIGN.md \"Lock ordering\")"
            ),
        },
    ));
}

/// Walk one file's functions, producing acquisition/call event streams.
fn walk_functions(
    file: usize,
    lines: &[ScanLine],
    fields: &HashMap<String, BTreeSet<Class>>,
) -> Vec<FnBody> {
    let mut out: Vec<FnBody> = Vec::new();
    let mut depth: i64 = 0;
    // Innermost-last stack of (body index in `out`, depth the body closes
    // at, the function's parameter names).
    let mut fn_stack: Vec<(usize, i64, Vec<String>)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    // The pending function's signature text, up to its body's `{`.
    let mut signature = String::new();
    let mut guards: Vec<Guard> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let n = idx + 1;
        let code = line.code.as_str();

        if let Some(name) = fn_name(code) {
            let at = code.find(&format!("fn {name}")).unwrap_or(0);
            signature = code[at..].to_owned();
            pending_fn = Some(name);
        } else if pending_fn.is_some() && code.contains(';') && !code.contains('{') {
            pending_fn = None; // trait-method signature without a body
        } else if pending_fn.is_some() {
            signature.push_str(code);
        }
        // A call through a parameter — the enclosing function's or a
        // closure's on this line — names no kernel function.
        let closure_params = closure_params(code);

        // Early releases.
        guards.retain(|g| {
            g.binding.as_ref().is_none_or(|b| {
                !code.contains(&format!("drop({b})")) && !code.contains(&format!("drop(&{b})"))
            })
        });

        // Gather this line's items — braces, guard acquisitions, calls —
        // with their byte offsets, then process them in source order so a
        // single-line body (`fn f() { self.x.lock() }`) still attributes
        // its events to the right function and scope.
        enum Item {
            Open,
            Close,
            Acquire { candidates: Vec<Class>, bindable: bool },
            Call(String),
        }
        let mut items: Vec<(usize, Item)> = Vec::new();
        for (off, c) in code.char_indices() {
            match c {
                '{' => items.push((off, Item::Open)),
                '}' => items.push((off, Item::Close)),
                _ => {}
            }
        }
        for call in GUARD_CALLS {
            let mut start = 0;
            while let Some(p) = code[start..].find(call) {
                let at = start + p;
                if let Some(recv) = receiver_before(&code[..at]) {
                    if let Some(cands) = fields.get(&recv) {
                        // A chained method (`.read().clone()`) consumes the
                        // guard within the statement — not bindable.
                        items.push((
                            at,
                            Item::Acquire {
                                candidates: cands.iter().copied().collect(),
                                bindable: !code[at + call.len()..].starts_with('.'),
                            },
                        ));
                    }
                }
                start = at + call.len();
            }
        }
        for (off, callee) in call_names(code) {
            items.push((off, Item::Call(callee)));
        }
        items.sort_by_key(|(off, _)| *off);

        let binding_name = crate::lint::guard_binding(code);
        for (_, item) in items {
            match item {
                Item::Open => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        out.push(FnBody { name, file, events: Vec::new() });
                        fn_stack.push((out.len() - 1, depth - 1, param_names(&signature)));
                    }
                }
                Item::Close => {
                    depth -= 1;
                    guards.retain(|g| g.depth < depth + 1);
                    while fn_stack.last().is_some_and(|(_, d, _)| *d >= depth) {
                        fn_stack.pop();
                    }
                }
                Item::Acquire { candidates, bindable } => {
                    let held = snapshot(&guards);
                    if let Some((bi, _, _)) = fn_stack.last() {
                        out[*bi].events.push(Event::Acquire {
                            candidates: candidates.clone(),
                            line: n,
                            held,
                        });
                    }
                    if bindable && binding_name.is_some() {
                        // One guard entry per line; a tuple binding of two
                        // guards merges their candidate sets.
                        if let Some(g) = guards.last_mut().filter(|g| g.line == n) {
                            g.candidates.extend(candidates);
                        } else {
                            guards.push(Guard {
                                binding: binding_name.clone(),
                                candidates,
                                depth,
                                line: n,
                            });
                        }
                    }
                }
                Item::Call(callee) => {
                    if let Some((bi, _, params)) = fn_stack.last() {
                        if params.contains(&callee) || closure_params.contains(&callee) {
                            continue;
                        }
                        out[*bi].events.push(Event::Call {
                            callee,
                            line: n,
                            held: snapshot(&guards),
                        });
                    }
                }
            }
        }
    }
    out
}

/// The live-guard snapshot recorded with each event.
fn snapshot(guards: &[Guard]) -> Vec<(Vec<Class>, usize)> {
    guards.iter().map(|g| (g.candidates.clone(), g.line)).collect()
}

/// `fn <name>` on this line (skipping `fn` inside types like `fn()` —
/// good enough: a following identifier is required).
fn fn_name(code: &str) -> Option<String> {
    let mut start = 0;
    while let Some(p) = code[start..].find("fn ") {
        let at = start + p;
        let bounded = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if bounded {
            let rest = code[at + 3..].trim_start();
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        start = at + 3;
    }
    None
}

/// The parameter names of a signature starting at `fn name`: each
/// top-level `name: Type` of its `(...)` list (with `mut`/`&` stripped),
/// patterns skipped.
fn param_names(signature: &str) -> Vec<String> {
    // Depth over `<(...)>` groups; `->` closes nothing.
    let mut depth = 0i32;
    let mut prev = ' ';
    let mut item: Option<String> = None;
    let mut items = Vec::new();
    for c in signature.chars() {
        let arrow = prev == '-';
        prev = c;
        match c {
            '(' | '<' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '>' if !arrow => depth -= 1,
            _ => {}
        }
        match (&mut item, depth, c) {
            (None, 1, '(') => item = Some(String::new()),
            (None, ..) => {}
            (Some(_), 0, _) => break,
            (Some(i), 1, ',') => items.push(std::mem::take(i)),
            (Some(i), ..) => i.push(c),
        }
    }
    items.extend(item);
    items.iter().filter_map(|i| binding_name(i.split(':').next()?)).collect()
}

/// The parameter names of every `|a, b: T|` closure head on a line (`||`
/// is an empty head or a logical or, and names nothing).
fn closure_params(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(p) = rest.find('|') {
        let after = &rest[p + 1..];
        let Some(q) = after.find('|') else { break };
        let head = &after[..q];
        if q > 0 && head.chars().all(|c| c.is_alphanumeric() || " _,:&<>()[]".contains(c)) {
            out.extend(head.split(',').filter_map(|i| binding_name(i.split(':').next()?)));
            rest = &after[q + 1..];
        } else {
            rest = after;
        }
    }
    out
}

/// `pat` as one bound identifier (`mut x`, `&x` and `x` give `x`).
fn binding_name(pat: &str) -> Option<String> {
    let t = pat.trim().trim_start_matches('&').trim();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim();
    let ok = !t.is_empty()
        && t.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !t.starts_with(|c: char| c.is_numeric())
        && t != "self";
    ok.then(|| t.to_owned())
}

/// The `Rank::<Name>` token in a declaration window, and the text after it.
fn extract_rank(window: &str) -> Option<(&str, &str)> {
    let p = window.find("Rank::")?;
    let rest = &window[p + "Rank::".len()..];
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(rest.len());
    (end > 0).then(|| (&rest[..end], &rest[end..]))
}

/// The first `"..."` literal in the window remainder (the class name).
fn extract_str(after: &str) -> Option<&str> {
    let open = after.find('"')?;
    let rest = &after[open + 1..];
    let close = rest.find('"')?;
    Some(&rest[..close])
}

/// The field/binding name a construction is assigned to: the identifier
/// before a trailing `:` (struct literal / let-with-type) or `=`.
fn field_before(prefix: &str) -> Option<String> {
    let t = prefix.trim_end();
    let t = t.strip_suffix(':').or_else(|| t.strip_suffix('=')).map(str::trim_end)?;
    let name: String = t
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    // `let mut x =` leaves `x`; a struct field leaves the field name.
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_numeric())).then_some(name)
}

/// The receiver identifier of a method call: the last path segment before
/// the dot, skipping one balanced `(...)` group (so `self.field().lock()`
/// resolves to the accessor name, which matches the field it exposes).
fn receiver_before(prefix: &str) -> Option<String> {
    let mut chars: &str = prefix;
    if chars.ends_with(')') {
        let bytes = chars.as_bytes();
        let mut depth = 0i32;
        let mut cut = None;
        for i in (0..bytes.len()).rev() {
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        chars = &chars[..cut?];
    }
    let name: String = chars
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_numeric())).then_some(name)
}

/// Plausible kernel-function call sites on a line: `(identifier start
/// offset, name)` for each `ident(` with a lowercase identifier that is
/// not a keyword, macro, guard call, or denylisted ubiquitous method name.
fn call_names(code: &str) -> Vec<(usize, String)> {
    const KEYWORDS: [&str; 10] =
        ["if", "while", "match", "for", "return", "fn", "loop", "move", "in", "else"];
    let bytes = code.as_bytes();
    let mut out: Vec<(usize, String)> = Vec::new();
    for i in 1..bytes.len() {
        if bytes[i] != b'(' {
            continue;
        }
        let name: String = code[..i]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let ok = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
            && !KEYWORDS.contains(&name.as_str())
            && !CALL_DENYLIST.contains(&name.as_str());
        if ok {
            out.push((i - name.len(), name));
        }
    }
    out
}

/// The candidate with the highest rank (acquired-side representative).
fn max_rank_rep(cands: &[Class], classes: &[(String, Rank)]) -> Option<Class> {
    cands.iter().copied().max_by_key(|c| classes[c.0].1 as u8)
}

/// The candidate with the lowest rank (held-side representative).
fn min_rank_rep(cands: &[Class], classes: &[(String, Rank)]) -> Option<Class> {
    cands.iter().copied().min_by_key(|c| classes[c.0].1 as u8)
}

fn render_dot(
    classes: &[(String, Rank)],
    direct: &BTreeSet<(Class, Class)>,
    via_call: &BTreeSet<(Class, Class)>,
) -> String {
    let mut s = String::from("digraph lockorder {\n  rankdir=TB;\n  node [shape=box];\n");
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by_key(|&i| (classes[i].1 as u8, classes[i].0.clone()));
    for i in order {
        let (name, rank) = &classes[i];
        s.push_str(&format!("  c{i} [label=\"{name}\\n{rank} ({})\"];\n", *rank as u8));
    }
    for (a, b) in direct {
        s.push_str(&format!("  c{} -> c{};\n", a.0, b.0));
    }
    for (a, b) in via_call {
        if !direct.contains(&(*a, *b)) {
            s.push_str(&format!("  c{} -> c{} [style=dashed];\n", a.0, b.0));
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Analysis {
        analyze(&[("t.rs".to_string(), src.to_string())])
    }

    fn rules(a: &Analysis) -> Vec<&str> {
        a.violations.iter().map(|(_, v)| v.rule).collect()
    }

    #[test]
    fn seeded_unranked_lock_fails_and_waiver_suppresses() {
        let src = "fn f() { let m = Mutex::new(0); }\n";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"]);
        assert!(a.violations[0].1.msg.contains("without a declared rank"));

        let src = "fn f() { let m = Mutex::new(0); } // LINT-ALLOW(lock-order): test fixture\n";
        let a = run(src);
        assert!(a.violations.is_empty());
        assert_eq!(a.used_waivers, [("t.rs".to_string(), 1)]);
    }

    #[test]
    fn ranked_constructions_are_not_flagged_and_declare_classes() {
        let src = "\
struct S { a: RankedMutex<u64>, b: RankedRwLock<u64> }
fn mk() -> S {
    S {
        a: RankedMutex::new(Rank::Db, \"t.a\", 0),
        b: RankedRwLock::new(
            Rank::Notify,
            \"t.b\",
            0,
        ),
    }
}
";
        let a = run(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.classes, [("t.a".to_string(), Rank::Db), ("t.b".to_string(), Rank::Notify)]);
    }

    #[test]
    fn seeded_direct_descent_fails_with_both_class_names() {
        let src = "\
fn decls() {
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
}
impl S {
    fn bad(&self) {
        let g = self.hi.lock();
        let h = self.lo.lock();
    }
}
";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"]);
        let msg = &a.violations[0].1.msg;
        assert!(msg.contains("t.lo") && msg.contains("t.hi"), "{msg}");
        assert!(msg.contains("Db") && msg.contains("Notify"), "{msg}");
    }

    #[test]
    fn ascending_and_scoped_acquisitions_pass() {
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn ascending(&self) {
        let g = self.lo.lock();
        let h = self.hi.lock();
    }
    fn scoped(&self) {
        { let g = self.hi.lock(); }
        let h = self.lo.lock();
    }
    fn dropped(&self) {
        let g = self.hi.lock();
        drop(g);
        let h = self.lo.lock();
    }
}
";
        let a = run(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn seeded_interprocedural_descent_is_found_via_call_graph() {
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn helper_inner(&self) {
        let g = self.lo.lock();
    }
    fn helper_outer(&self) {
        self.helper_inner();
    }
    fn bad(&self) {
        let g = self.hi.lock();
        self.helper_outer();
    }
}
";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"]);
        let msg = &a.violations[0].1.msg;
        assert!(msg.contains("helper_outer") && msg.contains("t.lo"), "{msg}");
    }

    #[test]
    fn call_descent_waiver_suppresses_and_is_recorded() {
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn helper(&self) { let g = self.lo.lock(); }
    fn bad(&self) {
        let g = self.hi.lock();
        // LINT-ALLOW(lock-order): fixture — deliberate inversion
        self.helper();
    }
}
";
        let a = run(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.used_waivers, [("t.rs".to_string(), 9)]);
    }

    #[test]
    fn ambiguous_field_names_are_judged_conservatively() {
        // `state` maps to both Db(10) and Notify(100); holding it must not
        // trip acquisitions between those ranks (min-rank on the held side),
        // and acquiring it under a mid-rank guard must not fire either
        // (max-rank on the acquired side).
        let src = "\
fn decls() {
    state: RankedMutex::new(Rank::Db, \"t.s1\", 0);
    state: RankedMutex::new(Rank::Notify, \"t.s2\", 0);
    mid: RankedMutex::new(Rank::WalSlot, \"t.mid\", 0);
}
impl S {
    fn a(&self) {
        let g = self.state.lock();
        let h = self.mid.lock();
    }
    fn b(&self) {
        let g = self.mid.lock();
        let h = self.state.lock();
    }
}
";
        let a = run(src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn try_acquisitions_still_rank_check_descents() {
        // try_* skips runtime blocking checks but a statically-visible
        // descent through a *blocking* call under a try-held guard is the
        // same hazard; the static pass treats the held side uniformly.
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn bad(&self) {
        let g = self.hi.try_lock();
        let h = self.lo.lock();
    }
}
";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"]);
    }

    #[test]
    fn hybrid_latch_constructions_map_to_the_frame_class() {
        let src = "\
fn decls() {
    latch: HybridLatch::new(Page::Free);
    ctl: RankedMutex::new(Rank::BufferPool, \"t.ctl\", 0);
}
impl S {
    fn bad(&self) {
        let g = self.ctl.lock();
        let h = self.latch.write();
    }
}
";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"]);
        assert!(a.violations[0].1.msg.contains("latch.frame"));
    }

    #[test]
    fn dot_graph_lists_classes_and_edges() {
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn ok(&self) {
        let g = self.lo.lock();
        let h = self.hi.lock();
    }
}
";
        let a = run(src);
        assert!(a.dot.contains("digraph lockorder"));
        assert!(a.dot.contains("t.lo\\nDb (10)"), "{}", a.dot);
        assert!(a.dot.contains("t.hi\\nNotify (100)"));
        assert!(a.dot.contains("c0 -> c1"), "{}", a.dot);
    }

    #[test]
    fn calls_through_parameters_name_no_kernel_function() {
        let src = "\
fn decls() {
    lo: RankedMutex::new(Rank::Db, \"t.lo\", 0);
    hi: RankedMutex::new(Rank::Notify, \"t.hi\", 0);
}
impl S {
    fn head(&self) -> u64 {
        let g = self.lo.lock();
    }
    fn search<F: Fn(u64)>(
        &self,
        mut head: impl Fn(usize) -> u64,
        tie: F,
    ) -> usize {
        let g = self.hi.lock();
        head(0) + tie(1)
    }
    fn scan(&self, keys: &[u64]) {
        let g = self.hi.lock();
        keys.iter().map(|&head, _| head(1)).count();
    }
    fn bad(&self) {
        let g = self.hi.lock();
        self.head();
    }
}
";
        let a = run(src);
        assert_eq!(rules(&a), ["lock-order"], "{:?}", a.violations);
        assert_eq!(a.violations[0].1.line, 23, "only the real call descends");
        assert_eq!(param_names("fn f<F: Fn(u8)>(&self, mut a: &[u8], (b, c): (u8, u8))"), ["a"]);
        assert_eq!(closure_params("x.map(|a, mut b: u8| a || b) || c"), ["a", "b"]);
    }
}
