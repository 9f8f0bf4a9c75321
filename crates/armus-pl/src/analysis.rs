//! Static deadlock analysis over PL programs.
//!
//! Where [`crate::trace`] judges *states* a scheduler already reached, this
//! module judges whole *programs* before they run. It abstracts each task's
//! per-phaser phase progression and await structure into a static
//! barrier-dependency graph over **await instances** and classifies every
//! program into the three-point verdict lattice of [`StaticVerdict`]:
//!
//! * [`StaticVerdict::ProvedSafe`] — the graph is acyclic, which (for the
//!   straight-line fragment the analysis handles exactly) implies **no
//!   reachable state is deadlocked** in the sense of Definition 3.2. Note
//!   the contract is deadlock-freedom, not hang-freedom: a task awaiting a
//!   phaser whose laggard terminated while registered never unblocks, but
//!   is not a deadlock (the laggard is not itself blocked) and never
//!   produces a deadlock report.
//! * [`StaticVerdict::DefiniteDeadlock`] — the analysis found a concrete
//!   [`DeadlockWitness`]: a schedule prefix that replays (via
//!   [`crate::semantics::enabled`]/[`crate::semantics::apply`]) from the
//!   program's initial state to a state the Definition 3.2 oracle *and*
//!   the `ϕ(S)` graph checker both report as deadlocked. Witnesses are
//!   validated before they are returned; an unreplayable candidate
//!   degrades to `Unknown`, never to a false `DefiniteDeadlock`.
//! * [`StaticVerdict::Unknown`] — the program leaves the fragment the
//!   abstraction is exact on (loops, stuck or non-prefix creation
//!   instructions, statically failing premises), or a static cycle exists
//!   but no witness was found within budget.
//!
//! # The abstraction
//!
//! First the *creation prefix* (`newTid`/`newPhaser`/`reg`/`fork` heads) of
//! every task is evaluated with the real semantics — creation instructions
//! never block each other permanently and never advance phases, so the
//! membership and phase structure they produce is the same under every
//! interleaving (programs where a creation instruction appears *after* a
//! blocking instruction are sent to `Unknown`). What remains per task is a
//! straight line of `skip`/`adv`/`await`/`dereg`, on which static position
//! determines the dynamic phase exactly.
//!
//! Each `await(p)` of task `t` at local phase `n ≥ 1` is an **await
//! instance**. For every other member `u` of `p` starting at phase `m₀ <
//! n`, task `u` must execute its `(n − m₀)`-th `adv(p)` (or a `dereg(p)`,
//! whichever comes first) before the instance can resolve; the instance
//! therefore depends on every await instance `u` passes strictly before
//! that contribution point — and on *all* of `u`'s instances when `u`
//! never contributes. A deadlocked set in any reachable state induces a
//! cycle among these edges (each blocked task's laggard is blocked at an
//! await the edge rule covers), so an **acyclic graph proves the program
//! deadlock-free**. A cycle is only a candidate: the analysis then hunts
//! for a real schedule (greedy freeze-at-the-cycle first, bounded DFS as
//! fallback) and demotes unconfirmed cycles to `Unknown`.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::deadlock::{deadlocked_tasks, is_deadlocked};
use crate::parser::{Span, SpanTable};
use crate::semantics::{apply, enabled, Rule, Transition};
use crate::state::State;
use crate::syntax::{Instr, Seq, Var};
use crate::trace;

/// Budgets for the witness search.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Maximum states the fallback DFS may visit while hunting for a
    /// deadlock witness after a static cycle is found. The greedy
    /// freeze-at-the-cycle search runs first and usually succeeds without
    /// touching this budget.
    pub dfs_budget: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { dfs_budget: 4096 }
    }
}

/// One `await` occurrence the static graph reasons about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AwaitSite {
    /// The awaiting task.
    pub task: Var,
    /// The awaited phaser.
    pub phaser: Var,
    /// The task's local phase at the await (statically determined).
    pub phase: u64,
    /// Position of the await in the task's residual straight-line script.
    pub position: usize,
    /// Source position, when the program carries a
    /// [`crate::parser::SpanTable`].
    pub span: Option<Span>,
}

impl std::fmt::Display for AwaitSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} awaits {} at phase {}", self.task, self.phaser, self.phase)?;
        if let Some(span) = self.span {
            write!(f, " ({span})")?;
        }
        Ok(())
    }
}

/// A validated deadlock witness: replaying `schedule` from the analysed
/// entry state (each step enabled) reaches a state where `deadlocked` is
/// exactly the Definition 3.2 deadlocked set and the `ϕ(S)` checker
/// produces a report.
#[derive(Clone, Debug)]
pub struct DeadlockWitness {
    /// The schedule prefix, replayable with
    /// [`crate::semantics::enabled`]/[`crate::semantics::apply`].
    pub schedule: Vec<Transition>,
    /// The deadlocked task set of the final state (sorted).
    pub deadlocked: Vec<Var>,
    /// The static await-instance cycle that prompted the search.
    pub cycle: Vec<AwaitSite>,
}

/// The verdict lattice: `ProvedSafe` and `DefiniteDeadlock` are both
/// *sound* (never claimed wrongly); `Unknown` is the honest top.
#[derive(Clone, Debug)]
pub enum StaticVerdict {
    /// No reachable state of the program is deadlocked (Definition 3.2) —
    /// a dynamic verifier can run it publish-only, with no check of its
    /// own.
    ProvedSafe,
    /// A concrete, replay-validated deadlock.
    DefiniteDeadlock {
        /// The validated schedule and cycle.
        witness: DeadlockWitness,
    },
    /// Out of fragment, or cycle without a confirmed witness.
    Unknown {
        /// Why the analysis gave up.
        reason: String,
    },
}

impl StaticVerdict {
    /// Is this `ProvedSafe`?
    pub fn is_proved_safe(&self) -> bool {
        matches!(self, StaticVerdict::ProvedSafe)
    }
}

/// Analyses a whole program (as run by [`State::initial`]).
pub fn analyse_program(program: &Seq) -> StaticVerdict {
    analyse_entry(State::initial(program.clone()), None, &AnalysisConfig::default())
}

/// As [`analyse_program`], but attaches source positions from a
/// [`SpanTable`] (see [`crate::parser::parse_spanned`]) to the await sites
/// of any witness cycle.
pub fn analyse_program_spanned(program: &Seq, spans: &SpanTable) -> StaticVerdict {
    analyse_entry(State::initial(program.clone()), Some(spans), &AnalysisConfig::default())
}

/// Analyses an arbitrary entry state (e.g. the canonical initial state of
/// a lowered testkit scenario). Witness schedules replay from this state.
pub fn analyse_state(state: &State) -> StaticVerdict {
    analyse_entry(state.clone(), None, &AnalysisConfig::default())
}

/// [`analyse_state`] with explicit budgets.
pub fn analyse_state_with(state: &State, config: &AnalysisConfig) -> StaticVerdict {
    analyse_entry(state.clone(), None, config)
}

fn unknown(reason: impl Into<String>) -> StaticVerdict {
    StaticVerdict::Unknown { reason: reason.into() }
}

/// The closed form the graph is built on: every creation prefix executed,
/// every task a straight line.
struct Closed {
    /// State after evaluating all creation prefixes.
    state: State,
    /// The transitions that got there (prepended to witness schedules).
    prefix: Vec<Transition>,
    /// Per task: source path base and consumed-instruction offset, so
    /// residual position `j` of task `t` maps to source path
    /// `base ++ [offset + j]`.
    paths: BTreeMap<Var, (Vec<usize>, usize)>,
}

/// Evaluates every task's creation prefix to fixpoint, deterministically
/// (tasks in `BTreeMap` order, each run as far as it will go per pass).
/// Creation instructions never advance phases, so the resulting membership
/// and phase structure is interleaving-independent.
fn close_prefixes(entry: State) -> Result<Closed, String> {
    let mut state = entry;
    let mut prefix = Vec::new();
    let mut paths: BTreeMap<Var, (Vec<usize>, usize)> =
        state.tasks.keys().map(|t| (t.clone(), (Vec::new(), 0))).collect();
    loop {
        let mut progressed = false;
        let tasks: Vec<Var> = state.tasks.keys().cloned().collect();
        for t in tasks {
            while let Some(instr) = state.tasks.get(&t).and_then(|s| s.first()).cloned() {
                let rule = match &instr {
                    Instr::NewTid(_) => Rule::NewTid,
                    Instr::NewPhaser(_) => Rule::NewPhaser,
                    Instr::Reg(_, _) => Rule::Reg,
                    Instr::Fork(_, _) => Rule::Fork,
                    _ => break,
                };
                let transition = Transition { task: t.clone(), rule };
                if !enabled(&state).contains(&transition) {
                    break;
                }
                if let Instr::Fork(target, _) = &instr {
                    // The forked body's source paths nest under the fork
                    // instruction's own path.
                    let (base, offset) = paths.get(&t).cloned().unwrap_or_default();
                    let mut child = base;
                    child.push(offset);
                    paths.insert(target.clone(), (child, 0));
                }
                state = apply(&state, &transition);
                if let Some(entry) = paths.get_mut(&t) {
                    entry.1 += 1;
                }
                prefix.push(transition);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Everything left must be straight-line skip/adv/await/dereg; a
    // creation instruction still at a head here is stuck (its premise
    // fails at fixpoint), and one buried deeper is out of fragment either
    // way.
    for (t, seq) in &state.tasks {
        for instr in seq {
            match instr {
                Instr::Skip | Instr::Adv(_) | Instr::Await(_) | Instr::Dereg(_) => {}
                Instr::Loop(_) => return Err(format!("task {t} contains a loop")),
                other => {
                    return Err(format!(
                        "task {t} has non-prefix or stuck creation instruction `{other}`"
                    ))
                }
            }
        }
    }
    Ok(Closed { state, prefix, paths })
}

/// Static facts about one task's residual script.
struct TaskFacts {
    /// Await instances, in script order.
    awaits: Vec<AwaitSite>,
    /// Positions of each `adv(p)`, per phaser, in script order.
    advs: BTreeMap<Var, Vec<usize>>,
    /// Position of the first `dereg(p)`, per phaser.
    deregs: BTreeMap<Var, usize>,
}

/// Walks a residual script, tracking per-phaser phase and membership.
/// Errors on any statically failing premise (op on a non-member phaser).
fn task_facts(closed: &Closed, task: &Var, spans: Option<&SpanTable>) -> Result<TaskFacts, String> {
    let state = &closed.state;
    let script = &state.tasks[task];
    let mut phase: BTreeMap<Var, u64> = BTreeMap::new();
    let mut members: BTreeSet<Var> = BTreeSet::new();
    for (name, ph) in &state.phasers {
        if let Some(n) = ph.phase_of(task) {
            phase.insert(name.clone(), n);
            members.insert(name.clone());
        }
    }
    let mut facts =
        TaskFacts { awaits: Vec::new(), advs: BTreeMap::new(), deregs: BTreeMap::new() };
    let span_at = |position: usize| {
        let (base, offset) = closed.paths.get(task)?;
        let mut path = base.clone();
        path.push(offset + position);
        spans?.get(&path)
    };
    for (position, instr) in script.iter().enumerate() {
        match instr {
            Instr::Skip => {}
            Instr::Adv(p) => {
                if !members.contains(p) {
                    return Err(format!("task {task} advances non-member phaser {p}"));
                }
                *phase.get_mut(p).expect("member has a phase") += 1;
                facts.advs.entry(p.clone()).or_default().push(position);
            }
            Instr::Await(p) => {
                if !members.contains(p) {
                    return Err(format!("task {task} awaits non-member phaser {p}"));
                }
                let n = phase[p];
                // Phase-0 awaits hold vacuously (every member's phase is
                // ≥ 0) and can never block.
                if n >= 1 {
                    facts.awaits.push(AwaitSite {
                        task: task.clone(),
                        phaser: p.clone(),
                        phase: n,
                        position,
                        span: span_at(position),
                    });
                }
            }
            Instr::Dereg(p) => {
                if !members.contains(p) {
                    return Err(format!("task {task} deregisters non-member phaser {p}"));
                }
                members.remove(p);
                facts.deregs.entry(p.clone()).or_insert(position);
            }
            other => unreachable!("closed residuals are straight-line, got {other}"),
        }
    }
    Ok(facts)
}

/// The static await-instance graph: nodes plus forward adjacency.
struct AwaitGraph {
    nodes: Vec<AwaitSite>,
    edges: Vec<Vec<usize>>,
}

fn build_graph(closed: &Closed, spans: Option<&SpanTable>) -> Result<AwaitGraph, String> {
    let state = &closed.state;
    let mut facts: BTreeMap<Var, TaskFacts> = BTreeMap::new();
    for task in state.tasks.keys() {
        facts.insert(task.clone(), task_facts(closed, task, spans)?);
    }
    let mut nodes: Vec<AwaitSite> = Vec::new();
    // (task, position) → node index, plus per-task node lists for the
    // "every await before the contribution point" edge fan-out.
    let mut by_task: BTreeMap<Var, Vec<usize>> = BTreeMap::new();
    for (task, f) in &facts {
        for site in &f.awaits {
            by_task.entry(task.clone()).or_default().push(nodes.len());
            nodes.push(site.clone());
        }
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, site) in nodes.iter().enumerate() {
        let ph = &state.phasers[&site.phaser];
        for (u, m0) in &ph.0 {
            if u == &site.task || *m0 >= site.phase {
                // Not a potential laggard: already at (or past) the
                // awaited phase from the start.
                continue;
            }
            let needed = (site.phase - m0) as usize;
            let uf = match facts.get(u) {
                Some(f) => f,
                // A registered name with no task script never advances —
                // it can make the await hang, but a hang is not a
                // deadlock, and it has no await instances to depend on.
                None => continue,
            };
            let adv_pos = uf.advs.get(&site.phaser).and_then(|v| v.get(needed - 1)).copied();
            let dereg_pos = uf.deregs.get(&site.phaser).copied();
            // The await resolves (w.r.t. u) once u reaches its needed adv
            // or deregisters, whichever comes first; until then it depends
            // on every await u must pass. No contribution at all means it
            // depends on all of u's awaits.
            let contribution = match (adv_pos, dereg_pos) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            };
            for &b in by_task.get(u).map(|v| v.as_slice()).unwrap_or(&[]) {
                if contribution.map(|c| nodes[b].position < c).unwrap_or(true) {
                    edges[a].push(b);
                }
            }
        }
    }
    Ok(AwaitGraph { nodes, edges })
}

/// Finds a cycle (as a node-index loop) via iterative three-colour DFS.
fn find_cycle(graph: &AwaitGraph) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let n = graph.nodes.len();
    let mut colour = vec![Colour::White; n];
    for root in 0..n {
        if colour[root] != Colour::White {
            continue;
        }
        // Stack of (node, next-edge-index); `path` mirrors the grey chain.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = Colour::Grey;
        let mut path: Vec<usize> = vec![root];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < graph.edges[node].len() {
                let succ = graph.edges[node][*next];
                *next += 1;
                match colour[succ] {
                    Colour::White => {
                        colour[succ] = Colour::Grey;
                        stack.push((succ, 0));
                        path.push(succ);
                    }
                    Colour::Grey => {
                        // Back edge: the cycle is the grey path from succ.
                        let start = path.iter().position(|&x| x == succ).expect("grey on path");
                        return Some(path[start..].to_vec());
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Greedy witness search: freeze every cycle task at its (earliest) cycle
/// await position, let everything else run deterministically, and check
/// whether the quiescent state is deadlocked.
fn greedy_freeze(closed: &Closed, cycle: &[AwaitSite]) -> Option<Vec<Transition>> {
    let mut freeze: BTreeMap<Var, usize> = BTreeMap::new();
    for site in cycle {
        let e = freeze.entry(site.task.clone()).or_insert(site.position);
        *e = (*e).min(site.position);
    }
    let mut state = closed.state.clone();
    let mut position: BTreeMap<Var, usize> = state.tasks.keys().map(|t| (t.clone(), 0)).collect();
    let mut schedule = Vec::new();
    loop {
        let mut progressed = false;
        let tasks: Vec<Var> = state.tasks.keys().cloned().collect();
        for t in &tasks {
            loop {
                if freeze.get(t).is_some_and(|&stop| position[t] >= stop) {
                    break;
                }
                let Some(instr) = state.tasks.get(t).and_then(|s| s.first()) else { break };
                let rule = match instr {
                    Instr::Skip => Rule::Skip,
                    Instr::Adv(_) => Rule::Adv,
                    Instr::Await(_) => Rule::Sync,
                    Instr::Dereg(_) => Rule::Dereg,
                    _ => unreachable!("closed residuals are straight-line"),
                };
                let transition = Transition { task: t.clone(), rule };
                if !enabled(&state).contains(&transition) {
                    break;
                }
                state = apply(&state, &transition);
                *position.get_mut(t).expect("task tracked") += 1;
                schedule.push(transition);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    is_deadlocked(&state).then_some(schedule)
}

/// Fallback: bounded DFS over the reachable states of the closed system,
/// returning the path to the first deadlocked state found.
fn dfs_deadlock(start: &State, budget: usize) -> Option<Vec<Transition>> {
    let mut seen: HashSet<State> = HashSet::new();
    seen.insert(start.clone());
    let mut stack: Vec<(State, Vec<Transition>)> = vec![(start.clone(), Vec::new())];
    while let Some((state, path)) = stack.pop() {
        if is_deadlocked(&state) {
            return Some(path);
        }
        if seen.len() >= budget {
            continue;
        }
        for transition in enabled(&state) {
            let next = apply(&state, &transition);
            if seen.insert(next.clone()) {
                let mut extended = path.clone();
                extended.push(transition);
                stack.push((next, extended));
            }
        }
    }
    None
}

/// Replays a candidate schedule from the entry state and demands the full
/// soundness contract: every step enabled, final state deadlocked per
/// Definition 3.2, and the `ϕ(S)` checker agreeing with a report.
fn validate_witness(entry: &State, schedule: &[Transition]) -> Option<Vec<Var>> {
    let mut state = entry.clone();
    for transition in schedule {
        if !enabled(&state).contains(transition) {
            return None;
        }
        state = apply(&state, transition);
    }
    let deadlocked = deadlocked_tasks(&state)?;
    let verdict = trace::analyse(&state);
    if verdict.report.is_none() || !verdict.internally_consistent() {
        return None;
    }
    Some(deadlocked.into_iter().collect())
}

fn analyse_entry(
    entry: State,
    spans: Option<&SpanTable>,
    config: &AnalysisConfig,
) -> StaticVerdict {
    let closed = match close_prefixes(entry.clone()) {
        Ok(closed) => closed,
        Err(reason) => return unknown(reason),
    };
    let graph = match build_graph(&closed, spans) {
        Ok(graph) => graph,
        Err(reason) => return unknown(reason),
    };
    let Some(cycle_nodes) = find_cycle(&graph) else {
        return StaticVerdict::ProvedSafe;
    };
    let cycle: Vec<AwaitSite> = cycle_nodes.iter().map(|&i| graph.nodes[i].clone()).collect();
    // A static cycle is only a candidate — hunt for a schedule that
    // realises it, then validate end to end before claiming anything.
    let candidate =
        greedy_freeze(&closed, &cycle).or_else(|| dfs_deadlock(&closed.state, config.dfs_budget));
    if let Some(suffix) = candidate {
        let mut schedule = closed.prefix.clone();
        schedule.extend(suffix);
        if let Some(deadlocked) = validate_witness(&entry, &schedule) {
            return StaticVerdict::DefiniteDeadlock {
                witness: DeadlockWitness { schedule, deadlocked, cycle },
            };
        }
    }
    unknown(format!(
        "static await cycle ({}) but no deadlock witness within budget",
        cycle.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(" -> ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_spanned};

    fn analyse_src(src: &str) -> StaticVerdict {
        analyse_program(&parse(src).unwrap())
    }

    #[test]
    fn straight_line_spmd_is_proved_safe() {
        // Two workers and the driver advance/await the same phaser twice,
        // in the same order: no cycle.
        let verdict = analyse_src(
            "p = newPhaser();
             t = newTid(); reg(p, t);
             fork(t) { adv(p); await(p); adv(p); await(p); dereg(p); }
             u = newTid(); reg(p, u);
             fork(u) { adv(p); await(p); adv(p); await(p); dereg(p); }
             adv(p); await(p); adv(p); await(p); dereg(p);",
        );
        assert!(verdict.is_proved_safe(), "{verdict:?}");
    }

    #[test]
    fn crossed_wait_is_a_definite_deadlock() {
        // Crossed barrier order: t waits on p (needing main's adv of p,
        // which main only does after its await of q), main waits on q
        // (needing t's adv of q, after t's await of p).
        let src = "p = newPhaser();
             q = newPhaser();
             t = newTid(); reg(p, t); reg(q, t);
             fork(t) { adv(p); await(p); adv(q); dereg(p); dereg(q); }
             adv(q); await(q); adv(p); dereg(p); dereg(q);";
        let verdict = analyse_src(src);
        let StaticVerdict::DefiniteDeadlock { witness } = verdict else {
            panic!("expected DefiniteDeadlock, got {verdict:?}");
        };
        // The witness replays to a Definition 3.2 deadlock.
        let mut state = State::initial(parse(src).unwrap());
        for tr in &witness.schedule {
            assert!(enabled(&state).contains(tr), "witness step {tr:?} not enabled");
            state = apply(&state, tr);
        }
        assert!(is_deadlocked(&state));
        assert_eq!(witness.deadlocked.len(), 2);
        assert!(!witness.cycle.is_empty());
    }

    #[test]
    fn terminated_laggard_hang_is_still_proved_safe() {
        // The forked task terminates while registered: main's await hangs
        // forever but no task set is deadlocked (Definition 3.2 needs the
        // laggard to be blocked too), so ProvedSafe is the correct verdict.
        let verdict = analyse_src(
            "p = newPhaser();
             t = newTid(); reg(p, t);
             fork(t) { skip; }
             adv(p); await(p);",
        );
        assert!(verdict.is_proved_safe(), "{verdict:?}");
    }

    #[test]
    fn loops_are_unknown() {
        let verdict = analyse_src("p = newPhaser(); loop { adv(p); await(p); } dereg(p);");
        assert!(matches!(verdict, StaticVerdict::Unknown { .. }), "{verdict:?}");
    }

    #[test]
    fn late_creation_is_unknown() {
        // A fork after an await leaves the exact fragment.
        let verdict = analyse_src(
            "p = newPhaser();
             t = newTid(); reg(p, t);
             adv(p); await(p);
             fork(t) { dereg(p); }",
        );
        assert!(matches!(verdict, StaticVerdict::Unknown { .. }), "{verdict:?}");
    }

    #[test]
    fn failing_premise_is_unknown() {
        // Adv on a phaser the task never joined.
        let verdict = analyse_src("p = newPhaser(); t = newTid(); fork(t) { adv(p); } await(p);");
        assert!(matches!(verdict, StaticVerdict::Unknown { .. }), "{verdict:?}");
    }

    #[test]
    fn witness_cycle_carries_source_spans() {
        let src = "p = newPhaser();
q = newPhaser();
t = newTid(); reg(p, t); reg(q, t);
fork(t) { adv(p); await(p); adv(q); }
adv(q); await(q); adv(p);";
        let (program, spans) = parse_spanned(src).unwrap();
        let StaticVerdict::DefiniteDeadlock { witness } = analyse_program_spanned(&program, &spans)
        else {
            panic!("expected DefiniteDeadlock");
        };
        for site in &witness.cycle {
            let span = site.span.expect("cycle awaits carry spans");
            assert!(span.line == 4 || span.line == 5, "{site}");
        }
        // The display points at source, compiler-style.
        let shown = witness.cycle[0].to_string();
        assert!(shown.contains("awaits"), "{shown}");
        assert!(shown.contains(':'), "{shown}");
    }

    #[test]
    fn proved_safe_programs_have_no_reachable_deadlock() {
        // Spot-check the soundness contract by exhaustive exploration.
        use crate::semantics::explore_stuck_states;
        let programs = [
            "p = newPhaser();
             t = newTid(); reg(p, t);
             fork(t) { adv(p); await(p); dereg(p); }
             adv(p); await(p); dereg(p);",
            "p = newPhaser(); q = newPhaser();
             t = newTid(); reg(p, t); reg(q, t);
             fork(t) { adv(p); await(p); adv(q); await(q); dereg(p); dereg(q); }
             adv(p); await(p); adv(q); await(q); dereg(p); dereg(q);",
        ];
        for src in programs {
            let program = parse(src).unwrap();
            assert!(analyse_program(&program).is_proved_safe());
            for stuck in explore_stuck_states(State::initial(program.clone()), 100_000) {
                assert!(!is_deadlocked(&stuck), "ProvedSafe program reached a deadlock");
            }
        }
    }
}
