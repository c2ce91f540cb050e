//! Open-loop load: a seeded schedule of requests due at exponential
//! gaps, a dispatcher that releases each one at its due time whether or
//! not earlier ones have finished, and a fixed set of connections that
//! carry them. Every request is timed from its due time, so a stall is
//! charged to every request it delays; the dispatcher's own lateness is
//! recorded separately and judges whether the run is valid.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Mean arrival rate of `serve-1k2-mixed`.
pub const RATE_PER_S: f64 = 0.8;

/// Seed of the arrival schedule. The schedule is one fixed trace for
/// every run, so runs with different `--seed`s (which vary the corpus and
/// the edits) carry the same bursts and the same mix; a seeded order
/// moved the share of requests that coalesce, and with it the CPU per
/// request, by ±10% from run to run.
pub const SCHEDULE_SEED: u64 = 0x0f3e_2023;

/// A run whose dispatcher ran later than this share of the mean gap (at
/// its tail) did not apply the load it claims, and is marked invalid.
pub const MAX_LATENESS_SHARE: f64 = 0.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// `analyze` with nothing edited.
    Noop,
    /// Edit one file (atomic tmp+rename), then `analyze`.
    Edit,
    /// Two identical `analyze` requests due at the same instant.
    Pair,
}

#[derive(Clone, Copy, Debug)]
pub struct Slot {
    pub due_ms: f64,
    pub kind: SlotKind,
}

/// SplitMix64: a small, seedable generator for the schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_10ad)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The request schedule for `seconds` of load at `rate` per second.
/// Gaps are exponential, as for independent users, but stratified: every
/// run draws the same `rate × seconds` gaps (the distribution's
/// quantiles) in a seeded order, so runs differ in when bursts come, not
/// in how much load they carry. Kinds are dealt from shuffled decks of
/// ten slots (seven no-op, two edit, one simultaneous pair), so every run
/// carries the same mix.
pub fn schedule(seed: u64, seconds: f64, rate: f64) -> Vec<Slot> {
    let mut rng = Rng::new(seed);
    let n = (rate * seconds).floor().max(1.0) as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate * 1e3)
        .collect();
    shuffle(&mut gaps, &mut rng);
    let mut deck: Vec<SlotKind> = Vec::new();
    let mut t = 0.0;
    gaps.into_iter()
        .map(|gap| {
            t += gap;
            if deck.is_empty() {
                deck = [SlotKind::Noop; 7]
                    .into_iter()
                    .chain([SlotKind::Edit; 2])
                    .chain([SlotKind::Pair])
                    .collect();
                shuffle(&mut deck, &mut rng);
            }
            Slot {
                due_ms: t,
                kind: deck.pop().expect("deck refilled"),
            }
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One request handed to a connection.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub seq: usize,
    pub kind: SlotKind,
    pub due: Instant,
}

/// Release every slot at its due time through `push` (twice for a
/// pair). Returns how late, in ms, each slot was released.
pub fn dispatch(slots: &[Slot], t0: Instant, mut push: impl FnMut(Vec<Job>)) -> Vec<f64> {
    let mut lateness = Vec::with_capacity(slots.len());
    let mut seq = 0;
    for s in slots {
        let due = t0 + Duration::from_secs_f64(s.due_ms / 1e3);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let n = if s.kind == SlotKind::Pair { 2 } else { 1 };
        let jobs = (0..n)
            .map(|k| Job {
                seq: seq + k,
                kind: s.kind,
                due,
            })
            .collect();
        seq += n;
        push(jobs);
    }
    lateness
}

pub struct LoopResult<T> {
    /// `(job, completion time, what the connection returned)`, in
    /// completion order.
    pub done: Vec<(Job, Instant, T)>,
    pub lateness_ms: Vec<f64>,
}

/// Drive `slots` open-loop over `conns` connections. `connect(i)` builds
/// connection `i`'s handler, which carries one job at a time.
pub fn run<T, H>(slots: &[Slot], conns: usize, connect: impl Fn(usize) -> H + Sync) -> LoopResult<T>
where
    T: Send,
    H: FnMut(&Job) -> T,
{
    let queue: Mutex<(VecDeque<Job>, bool)> = Mutex::new((VecDeque::new(), false));
    let ready = Condvar::new();
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let lateness_ms = std::thread::scope(|s| {
        for c in 0..conns {
            let (queue, ready, done, connect) = (&queue, &ready, &done, &connect);
            s.spawn(move || {
                let mut handler = connect(c);
                loop {
                    let job = {
                        let mut q = queue.lock().expect("job queue");
                        loop {
                            if let Some(j) = q.0.pop_front() {
                                break j;
                            }
                            if q.1 {
                                return;
                            }
                            q = ready.wait(q).expect("job queue");
                        }
                    };
                    let out = handler(&job);
                    let t = Instant::now();
                    done.lock().expect("results").push((job, t, out));
                }
            });
        }
        let lateness = dispatch(slots, t0, |jobs| {
            queue.lock().expect("job queue").0.extend(jobs);
            ready.notify_all();
        });
        queue.lock().expect("job queue").1 = true;
        ready.notify_all();
        lateness
    });
    LoopResult {
        done: done.into_inner().expect("results"),
        lateness_ms,
    }
}

/// Whether the dispatcher kept to its schedule: its tail lateness stays
/// within `MAX_LATENESS_SHARE` of the mean gap.
pub fn kept_schedule(lateness_ms: &[f64], rate: f64) -> bool {
    crate::stats::tail(lateness_ms).value <= MAX_LATENESS_SHARE * 1e3 / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_the_mix() {
        let a = schedule(7, 50.0 / RATE_PER_S, RATE_PER_S);
        let b = schedule(7, 50.0 / RATE_PER_S, RATE_PER_S);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_ms == y.due_ms && x.kind == y.kind));
        assert_ne!(
            a.iter().map(|s| s.due_ms as u64).collect::<Vec<_>>(),
            schedule(8, 50.0 / RATE_PER_S, RATE_PER_S)
                .iter()
                .map(|s| s.due_ms as u64)
                .collect::<Vec<_>>()
        );
        assert_eq!(a.len(), 50);
        let count = |k| a.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(SlotKind::Noop), 35);
        assert_eq!(count(SlotKind::Edit), 10);
        assert_eq!(count(SlotKind::Pair), 5);
        // Mean gap near 1/rate, and the load fits in the run.
        let mean = a.last().unwrap().due_ms / a.len() as f64;
        assert!(
            (0.9e3..1.0e3).contains(&(mean * RATE_PER_S)),
            "mean gap {mean}"
        );
    }

    #[test]
    fn a_generator_that_falls_behind_reports_its_lateness() {
        // Slots due every 5 ms, but releasing each takes 20 ms.
        let slots: Vec<Slot> = (0..12)
            .map(|i| Slot {
                due_ms: 5.0 * i as f64,
                kind: SlotKind::Noop,
            })
            .collect();
        let lateness = dispatch(&slots, Instant::now(), |_| {
            std::thread::sleep(Duration::from_millis(20))
        });
        assert_eq!(lateness.len(), 12);
        assert!(lateness[11] >= 150.0, "{lateness:?}");
        assert!(!kept_schedule(&lateness, 200.0));
        // The same schedule released promptly keeps to it.
        let prompt = dispatch(&slots, Instant::now(), |_| {});
        assert!(kept_schedule(&prompt, 2.0), "{prompt:?}");
    }

    #[test]
    fn open_loop_times_from_due_and_carries_pairs_twice() {
        let slots = vec![
            Slot {
                due_ms: 0.0,
                kind: SlotKind::Pair,
            },
            Slot {
                due_ms: 10.0,
                kind: SlotKind::Noop,
            },
        ];
        let r = run(&slots, 2, |_| {
            |_: &Job| std::thread::sleep(Duration::from_millis(30))
        });
        assert_eq!(r.done.len(), 3);
        // One connection is busy with the pair until ~30 ms, so the
        // no-op due at 10 ms completes at least 50 ms after its due time.
        let noop = r.done.iter().find(|d| d.0.kind == SlotKind::Noop).unwrap();
        assert!(noop.1.duration_since(noop.0.due) >= Duration::from_millis(45));
    }
}
