//! A work-stealing task queue: per-worker deques with steal-half.
//!
//! Tasks are distributed round-robin over one deque per worker at
//! construction. A worker pops from the *front* of its own deque; when that
//! runs dry it locates a victim with work and steals the *back half* of the
//! victim's deque in one batch. Batched stealing keeps contention
//! proportional to the imbalance rather than to the task count — the shape
//! "Optimal Multithreaded Batch-Parallel 2-3 Trees" argues for over a
//! contended global counter — while opposite-end access preserves each
//! worker's locality over the prefix it is already draining.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use timepiece_trace::Histogram;

/// Distribution of steal-batch sizes, in the shared metrics registry
/// (`repro profile` and the metrics snapshot report it). The handle is
/// cached: steady-state cost is one relaxed atomic add per steal.
fn steal_batch_sizes() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| timepiece_trace::histogram("sched.steal.batch_tasks"))
}

/// Per-worker deques with batched work stealing.
///
/// # Example
///
/// ```
/// use timepiece_sched::StealQueue;
///
/// let queue = StealQueue::new(0..10, 2);
/// // worker 1 can drain everything, stealing worker 0's share in batches
/// let drained: Vec<i32> = std::iter::from_fn(|| queue.pop(1)).collect();
/// assert_eq!(drained.len(), 10);
/// assert!(queue.steals() >= 1);
/// ```
#[derive(Debug)]
pub struct StealQueue<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    steals: AtomicUsize,
    stolen_tasks: AtomicUsize,
}

impl<T> StealQueue<T> {
    /// Distributes `items` round-robin over `workers` deques (at least one).
    pub fn new(items: impl IntoIterator<Item = T>, workers: usize) -> StealQueue<T> {
        StealQueue::dealt(items.into_iter().enumerate(), workers)
    }

    /// Deals each `(home, item)` to deque `home % workers` (at least one
    /// deque): the worker whose state is warm for the item gets it first,
    /// and stealing only re-balances.
    pub fn dealt(items: impl IntoIterator<Item = (usize, T)>, workers: usize) -> StealQueue<T> {
        let workers = workers.max(1);
        let mut deques: Vec<VecDeque<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (home, item) in items {
            deques[home % workers].push_back(item);
        }
        StealQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
            steals: AtomicUsize::new(0),
            stolen_tasks: AtomicUsize::new(0),
        }
    }

    /// How many tasks sit in `worker`'s own deque right now.
    pub fn backlog(&self, worker: usize) -> usize {
        self.deques[worker].lock().len()
    }

    /// The number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Pops the next task for `worker`: its own deque first, else a batch
    /// stolen from a victim. `None` means the whole queue is empty (though a
    /// concurrently *executing* task may still push no more work — this queue
    /// does not support task spawning).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn pop(&self, worker: usize) -> Option<T> {
        if let Some(task) = self.deques[worker].lock().pop_front() {
            return Some(task);
        }
        self.steal_into(worker)
    }

    /// How many successful steal operations occurred.
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// How many tasks changed owner through stealing.
    pub fn stolen_tasks(&self) -> usize {
        self.stolen_tasks.load(Ordering::Relaxed)
    }

    /// Steals the back half of the first victim with work (scanning from the
    /// thief's right neighbor), keeps the batch on the thief's deque and
    /// returns its first task.
    ///
    /// The whole transfer happens with *both* deques locked, so a stolen
    /// task is never invisible to other scanners: it is always in exactly
    /// one deque, except for the single task the thief claims (which is no
    /// different from a popped task). Without this, a sibling scanning
    /// between the victim's `split_off` and the thief's publish could see a
    /// globally empty queue and retire while work remains. Both locks are
    /// acquired in deque-index order, so two workers cross-stealing from
    /// each other cannot deadlock.
    fn steal_into(&self, thief: usize) -> Option<T> {
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            let (lo, hi) = (victim.min(thief), victim.max(thief));
            let mut lo_guard = self.deques[lo].lock();
            let mut hi_guard = self.deques[hi].lock();
            let (victim_deque, own) = if victim == lo {
                (&mut *lo_guard, &mut *hi_guard)
            } else {
                (&mut *hi_guard, &mut *lo_guard)
            };
            let len = victim_deque.len();
            if len == 0 {
                continue;
            }
            let mut batch = victim_deque.split_off(len - len.div_ceil(2));
            self.steals.fetch_add(1, Ordering::Relaxed);
            self.stolen_tasks.fetch_add(batch.len(), Ordering::Relaxed);
            steal_batch_sizes().record(batch.len() as u64);
            let first = batch.pop_front();
            own.extend(batch);
            return first;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn single_worker_drains_in_order() {
        let queue = StealQueue::new(0..5, 1);
        let drained: Vec<i32> = std::iter::from_fn(|| queue.pop(0)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.steals(), 0);
    }

    #[test]
    fn every_task_is_claimed_exactly_once_under_contention() {
        let total = 1000;
        let queue = StealQueue::new(0..total, 4);
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let queue = &queue;
                let claimed = &claimed;
                scope.spawn(move || {
                    while let Some(task) = queue.pop(w) {
                        claimed.lock().push(task);
                    }
                });
            }
        });
        let claimed = claimed.into_inner();
        assert_eq!(claimed.len(), total as usize);
        assert_eq!(claimed.iter().copied().collect::<BTreeSet<_>>().len(), total as usize);
    }

    #[test]
    fn steal_moves_half_of_the_victims_backlog() {
        // two workers, all ten tasks distributed round-robin: five each.
        // worker 1 drains its own five, then steals ceil(5/2) = 3 of 0's.
        let queue = StealQueue::new(0..10, 2);
        for _ in 0..5 {
            queue.pop(1).unwrap();
        }
        assert_eq!(queue.steals(), 0);
        queue.pop(1).unwrap();
        assert_eq!(queue.steals(), 1);
        assert_eq!(queue.stolen_tasks(), 3);
        // the victim still holds the front of its deque
        assert_eq!(queue.pop(0), Some(0));
    }

    #[test]
    fn empty_queue_pops_none() {
        let queue: StealQueue<u8> = StealQueue::new(std::iter::empty(), 3);
        assert_eq!(queue.pop(0), None);
        assert_eq!(queue.pop(2), None);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let queue = StealQueue::new(0..2, 8);
        let drained: Vec<i32> = std::iter::from_fn(|| queue.pop(7)).collect();
        assert_eq!(drained.len(), 2);
    }
}
