//! Small-step operational semantics of PL (Figure 4) and schedulers.
//!
//! The semantics is presented as an *enabled-transition enumeration*: for a
//! state we list every rule instance that can fire; applying one yields the
//! successor state. PL has no run-time errors — instructions whose premises
//! fail simply do not reduce (the task is stuck), and a stuck `await` is a
//! *blocked* task, the raw material of deadlocks.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::state::{PhaserState, State};
use crate::syntax::{subst_seq, Instr, Var};

/// One enabled transition: `task` can fire `rule`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// The reducing task.
    pub task: Var,
    /// The rule instance.
    pub rule: Rule,
}

/// The rule instances of Figure 4 (instruction and state levels fused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `[skip]`.
    Skip,
    /// `[i-loop]`: unfold the loop body once.
    LoopUnfold,
    /// `[e-loop]`: exit the loop.
    LoopExit,
    /// `[new-t]`: bind a fresh task name.
    NewTid,
    /// `[fork]`: start the forked task.
    Fork,
    /// `[new-ph]`: create a phaser registered to the current task.
    NewPhaser,
    /// `[reg]`: register another task, inheriting the current phase.
    Reg,
    /// `[dereg]`.
    Dereg,
    /// `[adv]`.
    Adv,
    /// `[sync]`: complete an `await` whose condition holds.
    Sync,
}

/// Enumerates every enabled transition of `state`.
pub fn enabled(state: &State) -> Vec<Transition> {
    let mut out = Vec::new();
    for (task, seq) in &state.tasks {
        let Some(instr) = seq.first() else { continue };
        match instr {
            Instr::Skip => out.push(Transition { task: task.clone(), rule: Rule::Skip }),
            Instr::Loop(_) => {
                out.push(Transition { task: task.clone(), rule: Rule::LoopUnfold });
                out.push(Transition { task: task.clone(), rule: Rule::LoopExit });
            }
            Instr::NewTid(_) => out.push(Transition { task: task.clone(), rule: Rule::NewTid }),
            Instr::NewPhaser(_) => {
                out.push(Transition { task: task.clone(), rule: Rule::NewPhaser })
            }
            Instr::Fork(t, _) => {
                // [fork] premise: the target exists and is `end` (it was
                // created by newTid and not yet forked).
                if state.tasks.get(t).map(|s| s.is_empty()).unwrap_or(false) {
                    out.push(Transition { task: task.clone(), rule: Rule::Fork });
                }
            }
            Instr::Reg(t, p) => {
                // [reg] premises: current task is a member (M(p)(t) = n);
                // the target can join at that phase.
                if let Some(ph) = state.phasers.get(p) {
                    if let Some(n) = ph.phase_of(task) {
                        let mut probe = ph.clone();
                        if probe.reg(t, n).is_ok() {
                            out.push(Transition { task: task.clone(), rule: Rule::Reg });
                        }
                    }
                }
            }
            Instr::Dereg(p) => {
                if state.phasers.get(p).and_then(|ph| ph.phase_of(task)).is_some() {
                    out.push(Transition { task: task.clone(), rule: Rule::Dereg });
                }
            }
            Instr::Adv(p) => {
                if state.phasers.get(p).and_then(|ph| ph.phase_of(task)).is_some() {
                    out.push(Transition { task: task.clone(), rule: Rule::Adv });
                }
            }
            Instr::Await(p) => {
                // [sync] premises: M(p)(t) = n and await(M(p), n).
                if let Some(ph) = state.phasers.get(p) {
                    if let Some(n) = ph.phase_of(task) {
                        if ph.await_holds(n) {
                            out.push(Transition { task: task.clone(), rule: Rule::Sync });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Applies an enabled transition, returning the successor state.
///
/// # Panics
/// Panics if the transition is not actually enabled in `state` (callers
/// must only apply transitions produced by [`enabled`] on the same state).
pub fn apply(state: &State, transition: &Transition) -> State {
    let mut next = state.clone();
    let task = &transition.task;
    let seq = next.tasks.get(task).expect("transition task exists").clone();
    let instr = seq.first().expect("transition task not finished").clone();
    let rest: Vec<Instr> = seq[1..].to_vec();

    match (&transition.rule, &instr) {
        (Rule::Skip, Instr::Skip) => {
            next.tasks.insert(task.clone(), rest);
        }
        (Rule::LoopUnfold, Instr::Loop(body)) => {
            // loop s'; s → c1; …; cn; (loop s'; s)
            let mut unfolded = body.clone();
            unfolded.push(Instr::Loop(body.clone()));
            unfolded.extend(rest);
            next.tasks.insert(task.clone(), unfolded);
        }
        (Rule::LoopExit, Instr::Loop(_)) => {
            next.tasks.insert(task.clone(), rest);
        }
        (Rule::NewTid, Instr::NewTid(v)) => {
            // (M, T ⊎ {t: t′=newTid(); s}) → (M, T ⊎ {t: s[t″/t′]} ⊎ {t″: end})
            let fresh = next.fresh_task();
            next.tasks.insert(task.clone(), subst_seq(&rest, v, &fresh));
            next.tasks.insert(fresh, Vec::new());
        }
        (Rule::Fork, Instr::Fork(t, body)) => {
            next.tasks.insert(task.clone(), rest);
            next.tasks.insert(t.clone(), body.clone());
        }
        (Rule::NewPhaser, Instr::NewPhaser(v)) => {
            // M --q:=P--> M ⊎ {q: P},  P = {t: 0},  q ∉ fv(s)
            let fresh = next.fresh_phaser();
            next.phasers.insert(fresh.clone(), PhaserState::singleton(task));
            next.tasks.insert(task.clone(), subst_seq(&rest, v, &fresh));
        }
        (Rule::Reg, Instr::Reg(t, p)) => {
            let ph = next.phasers.get_mut(p).expect("reg premise");
            let n = ph.phase_of(task).expect("reg premise");
            ph.reg(t, n).expect("reg premise");
            next.tasks.insert(task.clone(), rest);
        }
        (Rule::Dereg, Instr::Dereg(p)) => {
            next.phasers.get_mut(p).expect("dereg premise").dereg(task).expect("dereg premise");
            next.tasks.insert(task.clone(), rest);
        }
        (Rule::Adv, Instr::Adv(p)) => {
            next.phasers.get_mut(p).expect("adv premise").adv(task).expect("adv premise");
            next.tasks.insert(task.clone(), rest);
        }
        (Rule::Sync, Instr::Await(_)) => {
            next.tasks.insert(task.clone(), rest);
        }
        (rule, instr) => panic!("transition {rule:?} does not match instruction {instr}"),
    }
    next
}

/// Why a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every task reached `end`.
    Finished,
    /// No transition is enabled but some task has instructions left: the
    /// state is stuck (blocked awaits and/or failed premises).
    Stuck,
    /// The step budget ran out (loops may unfold forever).
    Budget,
}

/// Probability (numerator / 100) that [`RandomScheduler`] prefers
/// [`Rule::LoopExit`] over [`Rule::LoopUnfold`] when both are offered for
/// the same loop.
const EXIT_BIAS: u32 = 40;

/// A random scheduler: repeatedly picks one enabled transition uniformly,
/// with loop-exit bias to keep runs finite-ish.
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    /// A scheduler from a seed (deterministic).
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler { rng: SmallRng::seed_from_u64(seed) }
    }

    /// Picks one transition among the enabled ones, or `None` when stuck.
    pub fn pick(&mut self, options: &[Transition]) -> Option<Transition> {
        if options.is_empty() {
            return None;
        }
        let choice = options.choose(&mut self.rng)?.clone();
        // Loop bias: when a loop was chosen, re-decide unfold vs exit.
        if matches!(choice.rule, Rule::LoopUnfold | Rule::LoopExit) {
            let exit = self.rng.gen_range(0..100u32) < EXIT_BIAS;
            let rule = if exit { Rule::LoopExit } else { Rule::LoopUnfold };
            return Some(Transition { task: choice.task, rule });
        }
        Some(choice)
    }

    /// Runs `state` to completion/stuckness under this scheduler, invoking
    /// `observe` after every step. Returns the outcome and the final state.
    pub fn run(
        &mut self,
        mut state: State,
        max_steps: usize,
        mut observe: impl FnMut(&State),
    ) -> (Outcome, State) {
        for _ in 0..max_steps {
            let options = enabled(&state);
            match self.pick(&options) {
                None => {
                    let outcome =
                        if state.all_finished() { Outcome::Finished } else { Outcome::Stuck };
                    return (outcome, state);
                }
                Some(t) => {
                    state = apply(&state, &t);
                    observe(&state);
                }
            }
        }
        (Outcome::Budget, state)
    }
}

/// Exhaustively explores the reachable state space up to `max_states`
/// states (bounded model checking for small programs). Returns every
/// reachable *stuck* state with unfinished tasks.
pub fn explore_stuck_states(initial: State, max_states: usize) -> Vec<State> {
    use std::collections::HashSet;
    let mut seen: HashSet<State> = HashSet::new();
    let mut frontier = vec![initial];
    let mut stuck = Vec::new();
    while let Some(state) = frontier.pop() {
        if seen.len() >= max_states {
            break;
        }
        if !seen.insert(state.clone()) {
            continue;
        }
        let options = enabled(&state);
        if options.is_empty() {
            if !state.all_finished() {
                stuck.push(state);
            }
            continue;
        }
        for t in options {
            frontier.push(apply(&state, &t));
        }
    }
    stuck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::build::*;

    fn run(program: Vec<Instr>, seed: u64) -> (Outcome, State) {
        RandomScheduler::new(seed).run(State::initial(program), 10_000, |_| {})
    }

    #[test]
    fn straight_line_program_finishes() {
        let (outcome, st) = run(vec![skip(), skip(), skip()], 1);
        assert_eq!(outcome, Outcome::Finished);
        assert!(st.all_finished());
    }

    #[test]
    fn new_phaser_registers_creator() {
        let (outcome, st) = run(vec![new_phaser("p"), adv("p"), awaitp("p")], 2);
        assert_eq!(outcome, Outcome::Finished);
        // The sole member advanced to 1 and awaited (trivially satisfied).
        let ph = st.phasers.values().next().unwrap();
        assert_eq!(ph.phase_of("#main"), Some(1));
    }

    #[test]
    fn fork_runs_child_body() {
        let prog = vec![
            new_phaser("p"),
            new_tid("t"),
            reg("p", "t"),
            fork("t", vec![adv("p"), dereg("p")]),
            awaitp("p"), // waits for the child's adv? No: #main is at 0,
            // so await(p, 0) holds immediately.
            dereg("p"),
        ];
        let (outcome, st) = run(prog, 3);
        assert_eq!(outcome, Outcome::Finished);
        assert!(st.phasers.values().next().unwrap().0.is_empty());
    }

    #[test]
    fn barrier_synchronises_two_tasks() {
        // Both advance then await: must finish under any schedule.
        let prog = vec![
            new_phaser("p"),
            new_tid("t"),
            reg("p", "t"),
            fork("t", vec![adv("p"), awaitp("p"), dereg("p")]),
            adv("p"),
            awaitp("p"),
            dereg("p"),
        ];
        for seed in 0..20 {
            let (outcome, _) = run(prog.clone(), seed);
            assert_eq!(outcome, Outcome::Finished, "seed {seed}");
        }
    }

    #[test]
    fn missing_arrival_gets_stuck() {
        // The child never advances: #main's await(p) at phase 1 can never
        // fire. The run ends Stuck (once the child has finished).
        let prog = vec![
            new_phaser("p"),
            new_tid("t"),
            reg("p", "t"),
            fork("t", vec![skip()]), // child does not adv, does not dereg
            adv("p"),
            awaitp("p"),
            dereg("p"),
        ];
        let (outcome, st) = run(prog, 7);
        assert_eq!(outcome, Outcome::Stuck);
        assert_eq!(st.blocked_awaits().len(), 1);
    }

    #[test]
    fn reg_of_running_task_is_not_enabled() {
        // fork target must be `end`; a double fork sticks.
        let prog = vec![
            new_tid("t"),
            fork("t", vec![skip()]),
            fork("t", vec![skip()]), // t is running or finished-with-body…
        ];
        // After the first fork, t's sequence is [skip] (not end), so the
        // second fork is disabled until t finishes - and then t is `end`
        // again, so it CAN fire. This is PL's permissive fork; just check
        // we terminate on some schedule.
        let (outcome, _) = run(prog, 11);
        assert!(matches!(outcome, Outcome::Finished | Outcome::Stuck));
    }

    #[test]
    fn loop_unfolds_and_exits() {
        let prog = vec![ploop(vec![skip()]), skip()];
        let (outcome, _) = run(prog, 13);
        assert_eq!(outcome, Outcome::Finished);
    }

    #[test]
    fn explore_finds_the_figure1_deadlock() {
        // Miniature running example: one worker, one iteration.
        let prog = vec![
            new_phaser("pc"),
            new_phaser("pb"),
            new_tid("t"),
            reg("pc", "t"),
            reg("pb", "t"),
            fork("t", vec![adv("pc"), awaitp("pc"), dereg("pc"), dereg("pb")]),
            // BUG: parent never advances pc, goes straight to the join.
            adv("pb"),
            awaitp("pb"),
        ];
        let stuck = explore_stuck_states(State::initial(prog), 100_000);
        assert!(!stuck.is_empty(), "the deadlock must be reachable");
        assert!(
            stuck.iter().any(|s| s.blocked_awaits().len() == 2),
            "worker and parent both blocked in some stuck state"
        );
    }

    #[test]
    fn explore_fixed_program_has_no_stuck_state() {
        // The fix: parent drops pc before the join.
        let prog = vec![
            new_phaser("pc"),
            new_phaser("pb"),
            new_tid("t"),
            reg("pc", "t"),
            reg("pb", "t"),
            fork("t", vec![adv("pc"), awaitp("pc"), dereg("pc"), dereg("pb")]),
            dereg("pc"), // the fix
            adv("pb"),
            awaitp("pb"),
        ];
        let stuck = explore_stuck_states(State::initial(prog), 100_000);
        assert!(stuck.is_empty(), "fixed program deadlock-free: {stuck:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let prog = vec![
            new_phaser("p"),
            new_tid("t"),
            reg("p", "t"),
            fork("t", vec![ploop(vec![adv("p"), awaitp("p")]), dereg("p")]),
            ploop(vec![adv("p"), awaitp("p")]),
            dereg("p"),
        ];
        let (o1, s1) = run(prog.clone(), 42);
        let (o2, s2) = run(prog, 42);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }
}
