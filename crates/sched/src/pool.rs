//! The scheduler's execution engine: a persistent worker [`Pool`] that
//! drains each job through a [`StealQueue`], with per-worker state that
//! lives as long as the pool and fail-fast cancellation.

use std::sync::{mpsc, Arc, Condvar, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use crate::cancel::CancelToken;
use crate::queue::StealQueue;

/// How often a raised token's hooks are re-delivered while workers are
/// still winding down (see [`Pool::run`]).
const WATCHDOG_PERIOD: Duration = Duration::from_millis(15);

/// What one job of the pool did, beyond the task results themselves.
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// How many workers the job woke (at most one per task).
    pub workers: usize,
    /// Tasks claimed per worker of the pool (including tasks a worker
    /// abandoned after a cancellation landed mid-task; zero for a worker the
    /// job did not wake).
    pub claimed: Vec<usize>,
    /// Successful steal operations across the job.
    pub steals: usize,
    /// Tasks that changed owner through stealing.
    pub stolen_tasks: usize,
    /// Did the job end by cancellation (fail-fast or error)?
    pub cancelled: bool,
}

/// The results and statistics of one [`Pool::run`].
#[derive(Debug)]
pub struct SchedOutcome<R> {
    /// Output of every task that completed, in no particular order.
    pub results: Vec<R>,
    /// Execution statistics.
    pub stats: SchedStats,
}

/// Why a [`Pool::run`] produced no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError<E> {
    /// The first hard error a task returned.
    Task(E),
    /// A worker thread panicked, in this job or an earlier one; the pool can
    /// no longer serve jobs and should be dropped.
    WorkerDied,
}

/// One kind of job a pool's workers can run: their long-lived state, the
/// tasks a job is made of, and what to do with each.
pub trait Job: Send + Sync + 'static {
    /// What each worker owns for the pool's life.
    type State;
    /// One unit of work.
    type Task: Send;
    /// What a completed task yields.
    type Output: Send;
    /// A hard error: it cancels the job and is returned for the whole run.
    type Error: Send;

    /// The worker (modulo the pool's size) whose state is warm for `task`,
    /// the `index`-th of the job: it is dealt the task, and another worker
    /// runs it only by stealing. The default deals round-robin.
    fn home(&self, index: usize, _task: &Self::Task) -> usize {
        index
    }

    /// Runs on each woken worker before it claims its first task; `token`
    /// is the job's.
    fn begin(&self, _state: &mut Self::State, _token: &CancelToken) {}

    /// Runs one task. `Ok(None)` means the task was *abandoned*
    /// (cancellation landed mid-task); nothing is recorded for it.
    ///
    /// # Errors
    ///
    /// A hard error raises the job's token, so every other worker winds
    /// down, and the first such error is what [`Pool::run`] returns.
    fn run(
        &self,
        state: &mut Self::State,
        task: Self::Task,
        token: &CancelToken,
    ) -> Result<Option<Self::Output>, Self::Error>;

    /// Runs on each woken worker after its last task of the job.
    fn end(&self, _state: &mut Self::State) {}
}

/// One job in flight: the queue, the collected results, and the count of
/// workers still on it.
struct Run<J: Job> {
    job: J,
    queue: StealQueue<J::Task>,
    token: CancelToken,
    results: Mutex<Vec<J::Output>>,
    first_error: Mutex<Option<J::Error>>,
    claimed: Mutex<Vec<usize>>,
    progress: std::sync::Mutex<Progress>,
    wound_down: Condvar,
}

struct Progress {
    /// Tickets not yet handed back.
    running: usize,
    /// Was a ticket dropped without its work done — by a panicking worker,
    /// or by one that had died before it could take the ticket?
    died: bool,
}

impl<J: Job> Run<J> {
    /// The one claim loop: own deque first, steal-half otherwise, until the
    /// queue is dry or the token is raised.
    fn work(&self, worker: usize, state: &mut J::State) {
        self.job.begin(state, &self.token);
        let mut claimed = 0usize;
        while !self.token.is_cancelled() {
            // claim time (own-deque pop or steal scan) is the scheduler's
            // contribution to the profile's steal-idle bucket
            let task = {
                let _claim = timepiece_trace::span(timepiece_trace::Phase::Idle, "claim");
                self.queue.pop(worker)
            };
            let Some(task) = task else { break };
            claimed += 1;
            match self.job.run(state, task, &self.token) {
                Ok(Some(result)) => self.results.lock().push(result),
                Ok(None) => {}
                Err(e) => {
                    self.first_error.lock().get_or_insert(e);
                    self.token.cancel();
                    break;
                }
            }
        }
        self.job.end(state);
        self.claimed.lock()[worker] = claimed;
    }

    fn retire(&self, died: bool) {
        if died {
            // the survivors must not finish the dead worker's share first
            self.token.cancel();
        }
        let mut progress = self.progress.lock().unwrap_or_else(|poison| poison.into_inner());
        progress.running -= 1;
        progress.died |= died;
        self.wound_down.notify_all();
    }
}

/// A worker's share of one job. Handing it back is what tells the caller the
/// worker is done — on every path: after the work, during the unwind of a
/// panicking task, and when a worker that already died drops its mailbox
/// with the ticket still in it.
struct Ticket<J: Job> {
    run: Arc<Run<J>>,
    done: bool,
}

impl<J: Job> Drop for Ticket<J> {
    fn drop(&mut self) {
        self.run.retire(!self.done);
    }
}

/// A pool of persistent work-stealing worker threads for jobs of kind `J`.
///
/// Each worker builds its state once, on its own thread, via the pool's
/// `init` — this is where a verification worker makes room for its solver
/// session — and keeps it across every job until the pool is dropped, so
/// consecutive jobs start warm. A pool that is dropped after one job is the
/// one-shot case; there is no second engine for it. Dropping a pool drops
/// every worker's state on its thread and parks the threads for the next
/// pool instead of ending them.
///
/// # Example
///
/// ```
/// use timepiece_sched::{CancelToken, Job, Pool};
///
/// /// Scales each task; a worker's state counts the tasks it ever ran.
/// struct Scale(u64);
///
/// impl Job for Scale {
///     type State = u64;
///     type Task = u64;
///     type Output = u64;
///     type Error = std::convert::Infallible;
///     fn run(
///         &self,
///         seen: &mut u64,
///         task: u64,
///         _: &CancelToken,
///     ) -> Result<Option<u64>, Self::Error> {
///         *seen += 1;
///         Ok(Some(task * self.0))
///     }
/// }
///
/// let mut pool = Pool::new(4, |_worker| 0u64);
/// for factor in 0..3 {
///     let outcome =
///         pool.run((0..100).collect(), &CancelToken::new(), Scale(factor)).unwrap();
///     assert_eq!(outcome.results.len(), 100);
///     assert_eq!(outcome.stats.claimed.iter().sum::<usize>(), 100);
/// }
/// ```
pub struct Pool<J: Job> {
    mailboxes: Vec<mpsc::Sender<Ticket<J>>>,
    /// Per worker, a channel whose sender the worker drops after its state:
    /// its disconnect means the worker is off its thread.
    retired: Vec<mpsc::Receiver<()>>,
}

/// A worker loop handed to a thread.
type Work = Box<dyn FnOnce() + Send>;

/// Threads whose worker loop has ended, each waiting for the next one.
///
/// A thread keeps its allocator arena for life (and its Z3 context: the
/// solver binding has one per thread), and a worker's solver session leaves
/// megabytes freed but still mapped in that arena; a thread that exits
/// leaves them behind where the next pool's fresh threads may never reuse
/// them. So a pool's threads outlive it, parked here, and the next
/// pool runs its workers on them: a process that builds pools one after
/// another (a daemon loaded anew, a one-shot check per call) keeps one
/// set of threads and one footprint. There are never more parked threads
/// than there were workers at once.
fn parked() -> &'static Mutex<Vec<mpsc::Sender<Work>>> {
    static PARKED: OnceLock<Mutex<Vec<mpsc::Sender<Work>>>> = OnceLock::new();
    PARKED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `work` on a parked thread, or on a new one if none is parked.
fn run_on_thread(work: Work) {
    if let Some(thread) = parked().lock().pop() {
        // a parked thread holds its own sender: it is there to receive
        thread.send(work).expect("a parked thread waits for work");
        return;
    }
    std::thread::spawn(move || {
        let (wake, next) = mpsc::channel::<Work>();
        let mut work = Some(work);
        while let Some(run) = work.take() {
            // a panicking worker unwinds out of here: its thread is not
            // parked again
            run();
            parked().lock().push(wake.clone());
            work = next.recv().ok();
        }
    });
}

impl<J: Job> std::fmt::Debug for Pool<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.mailboxes.len()).finish()
    }
}

impl<J: Job> Pool<J> {
    /// Starts `workers` workers (at least one), each on a thread of its
    /// own — a parked one where there is one; worker `w` owns `init(w)`.
    pub fn new(
        workers: usize,
        init: impl Fn(usize) -> J::State + Send + Sync + 'static,
    ) -> Pool<J> {
        let init = Arc::new(init);
        let (mailboxes, retired) = (0..workers.max(1))
            .map(|w| {
                let (mailbox, tickets) = mpsc::channel::<Ticket<J>>();
                let (retiring, retired) = mpsc::channel::<()>();
                let init = Arc::clone(&init);
                run_on_thread(Box::new(move || {
                    // dropped last, after the state — also in an unwind
                    let _retiring = retiring;
                    timepiece_trace::set_thread_label(format!("worker{w}"));
                    let mut state = init(w);
                    while let Ok(mut ticket) = tickets.recv() {
                        ticket.run.work(w, &mut state);
                        ticket.done = true;
                    }
                }));
                (mailbox, retired)
            })
            .unzip();
        Pool { mailboxes, retired }
    }

    /// How many worker threads the pool runs.
    pub fn workers(&self) -> usize {
        self.mailboxes.len()
    }

    /// Runs `tasks` to completion (or cancellation) as one job.
    ///
    /// Every task is dealt to its [`Job::home`]. The job wakes the workers
    /// that were dealt one, then idle ones to steal from them, until it has
    /// as many workers as tasks. Each loops: claim a task (own deque first,
    /// steal-half otherwise), run it, repeat until the queue is dry or
    /// `token` is raised. Cancellation is cooperative:
    /// workers observe the token between tasks, and tasks that poll it
    /// themselves (or register interrupt hooks via
    /// [`CancelToken::on_cancel`]) stop earlier still.
    ///
    /// While workers are still on the job, the calling thread re-delivers a
    /// raised token's hooks every few milliseconds. A single firing can be
    /// lost — an interrupt that lands between a worker's flag check and its
    /// entry into a long solver call hits an *idle* solver and does nothing
    /// — so cancellation latency would silently degrade from "interrupt
    /// latency" to "one full solve". Refiring bounds the lost window.
    ///
    /// # Errors
    ///
    /// [`PoolError::Task`] with the first hard error any task produced;
    /// [`PoolError::WorkerDied`] if a worker panicked (never a hang, never a
    /// re-raised panic).
    pub fn run(
        &mut self,
        tasks: Vec<J::Task>,
        token: &CancelToken,
        job: J,
    ) -> Result<SchedOutcome<J::Output>, PoolError<J::Error>> {
        let workers = self.workers().min(tasks.len()).max(1);
        let dealt = tasks.into_iter().enumerate().map(|(i, task)| (job.home(i, &task), task));
        let queue = StealQueue::dealt(dealt, self.workers());
        // first the workers that were dealt a task, then idle ones
        let mut wake: Vec<usize> = (0..self.workers()).collect();
        wake.sort_by_key(|&w| queue.backlog(w) == 0);
        let run = Arc::new(Run {
            job,
            queue,
            token: token.clone(),
            results: Mutex::new(Vec::new()),
            first_error: Mutex::new(None),
            claimed: Mutex::new(vec![0; self.workers()]),
            progress: std::sync::Mutex::new(Progress { running: workers, died: false }),
            wound_down: Condvar::new(),
        });
        for &w in &wake[..workers] {
            // a refused ticket comes back inside the error and is dropped
            // there, which retires it as died
            let _ = self.mailboxes[w].send(Ticket { run: Arc::clone(&run), done: false });
        }
        const LOCK: &str = "nothing that holds this lock can panic";
        let mut progress = run.progress.lock().expect(LOCK);
        while progress.running > 0 {
            progress = run.wound_down.wait_timeout(progress, WATCHDOG_PERIOD).expect(LOCK).0;
            if progress.running > 0 {
                // the hooks are the caller's code: run them with the lock
                // free, so a slow one cannot hold up a retiring worker
                drop(progress);
                token.refire();
                progress = run.progress.lock().expect(LOCK);
            }
        }
        if progress.died {
            return Err(PoolError::WorkerDied);
        }
        drop(progress);
        if let Some(e) = run.first_error.lock().take() {
            return Err(PoolError::Task(e));
        }
        let results = std::mem::take(&mut *run.results.lock());
        let claimed = std::mem::take(&mut *run.claimed.lock());
        Ok(SchedOutcome {
            results,
            stats: SchedStats {
                workers,
                claimed,
                steals: run.queue.steals(),
                stolen_tasks: run.queue.stolen_tasks(),
                cancelled: token.is_cancelled(),
            },
        })
    }
}

impl<J: Job> Drop for Pool<J> {
    fn drop(&mut self) {
        // closing a mailbox ends its worker's receive loop; waiting for the
        // disconnects makes the workers' state (solver sessions) gone when
        // the pool is
        self.mailboxes.clear();
        for retired in self.retired.drain(..) {
            let _ = retired.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// A job over `i32` tasks from a closure; the worker state counts the
    /// tasks the worker ever ran.
    struct FnJob<F>(F);

    impl<F> Job for FnJob<F>
    where
        F: Fn(i32) -> Result<Option<i32>, &'static str> + Send + Sync + 'static,
    {
        type State = usize;
        type Task = i32;
        type Output = i32;
        type Error = &'static str;
        fn run(
            &self,
            seen: &mut usize,
            task: i32,
            _: &CancelToken,
        ) -> Result<Option<i32>, &'static str> {
            *seen += 1;
            (self.0)(task)
        }
    }

    fn pool<F>(workers: usize) -> Pool<FnJob<F>>
    where
        F: Fn(i32) -> Result<Option<i32>, &'static str> + Send + Sync + 'static,
    {
        Pool::new(workers, |_| 0)
    }

    #[test]
    fn all_tasks_complete_and_results_collect() {
        let outcome = pool(3)
            .run((0..57).collect(), &CancelToken::new(), FnJob(|task| Ok(Some(task))))
            .unwrap();
        let mut results = outcome.results;
        results.sort_unstable();
        assert_eq!(results, (0..57).collect::<Vec<_>>());
        assert_eq!(outcome.stats.workers, 3);
        assert!(!outcome.stats.cancelled);
    }

    #[test]
    fn skewed_work_is_stolen() {
        // round-robin distribution put 0,4,8,… on worker 0; exactly those
        // are slow, so the other workers finish early and must steal
        let job = FnJob(|task| {
            if task % 4 == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(Some(task))
        });
        let outcome = pool(4).run((0..32).collect(), &CancelToken::new(), job).unwrap();
        assert_eq!(outcome.results.len(), 32);
        assert!(outcome.stats.steals > 0, "fast workers must steal the slow backlog");
    }

    #[test]
    fn error_cancels_the_run_and_wins() {
        let token = CancelToken::new();
        let attempted = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&attempted);
        let job = FnJob(move |task| {
            counter.fetch_add(1, Ordering::Relaxed);
            if task == 3 {
                Err("boom")
            } else {
                Ok(Some(task))
            }
        });
        let err = pool(2).run((0..1000).collect(), &token, job).unwrap_err();
        assert_eq!(err, PoolError::Task("boom"));
        assert!(token.is_cancelled());
        assert!(attempted.load(Ordering::Relaxed) < 1000, "error must stop the pool early");
    }

    #[test]
    fn cancellation_mid_run_stops_scheduling() {
        let token = CancelToken::new();
        let canceller = token.clone();
        let job = FnJob(move |task| {
            if task == 5 {
                canceller.cancel();
                return Ok(None); // abandoned
            }
            Ok(Some(task))
        });
        let outcome = pool(1).run((0..1000).collect(), &token, job).unwrap();
        // round-robin with one worker preserves order: 0..=4 completed,
        // 5 abandoned, nothing after
        assert_eq!(outcome.results.len(), 5);
        assert_eq!(outcome.stats.claimed, vec![6]);
        assert!(outcome.stats.cancelled);
    }

    #[test]
    fn worker_panic_is_an_error_not_a_hang_and_the_pool_stays_dead() {
        let mut pool = pool(2);
        let token = CancelToken::new();
        let explode = |t| if t == 3 { panic!("task exploded") } else { Ok(Some(t)) };
        let result = pool.run((0..10).collect(), &token, FnJob(explode));
        assert_eq!(result.unwrap_err(), PoolError::WorkerDied);
        assert!(token.is_cancelled(), "the survivor must be told to wind down");
        // whichever worker died, a job wide enough to need it fails the
        // same way instead of waiting on a thread that is gone
        let again = pool.run((0..10).collect(), &CancelToken::new(), FnJob(explode));
        assert_eq!(again.unwrap_err(), PoolError::WorkerDied);
    }

    #[test]
    fn a_job_wakes_no_more_workers_than_it_has_tasks() {
        let mut pool = pool(16);
        let echo = |t| Ok(Some(t));
        let one = pool.run(vec![1], &CancelToken::new(), FnJob(echo)).unwrap();
        assert_eq!(one.stats.workers, 1);
        let none = pool.run(Vec::new(), &CancelToken::new(), FnJob(echo)).unwrap();
        assert_eq!(none.stats.workers, 1);
        assert!(none.results.is_empty());
    }

    /// Each task names its home; its result is the worker that ran it.
    struct WhoRan;

    impl Job for WhoRan {
        type State = usize;
        type Task = usize;
        type Output = usize;
        type Error = ();
        fn home(&self, _index: usize, task: &usize) -> usize {
            *task
        }
        fn run(&self, me: &mut usize, _: usize, _: &CancelToken) -> Result<Option<usize>, ()> {
            Ok(Some(*me))
        }
    }

    #[test]
    fn a_task_is_dealt_to_its_home_and_idle_workers_are_woken_to_steal() {
        let mut pool = Pool::new(4, |w| w);
        for home in [2, 7] {
            // one task wakes one worker: the one it is at home on
            let outcome = pool.run(vec![home], &CancelToken::new(), WhoRan).unwrap();
            assert_eq!(outcome.results, [home % 4]);
            assert_eq!(outcome.stats.workers, 1);
        }
        // tasks that share a home still get a worker each
        let outcome = pool.run(vec![1; 3], &CancelToken::new(), WhoRan).unwrap();
        assert_eq!(outcome.stats.workers, 3);
        assert_eq!(outcome.stats.claimed.iter().sum::<usize>(), 3);
    }

    /// Reports the running worker's lifetime task count as each result, and
    /// counts the prologues and epilogues the pool ran.
    struct Bracketed {
        begun: Arc<AtomicUsize>,
        ended: Arc<AtomicUsize>,
    }

    impl Job for Bracketed {
        type State = usize;
        type Task = ();
        type Output = usize;
        type Error = ();
        fn begin(&self, _seen: &mut usize, _: &CancelToken) {
            self.begun.fetch_add(1, Ordering::Relaxed);
        }
        fn run(&self, seen: &mut usize, (): (), _: &CancelToken) -> Result<Option<usize>, ()> {
            *seen += 1;
            Ok(Some(*seen))
        }
        fn end(&self, _seen: &mut usize) {
            self.ended.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn worker_state_is_built_once_and_jobs_are_bracketed_per_woken_worker() {
        let inits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&inits);
        let mut pool = Pool::new(4, move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            0usize
        });
        let (begun, ended) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let job = || Bracketed { begun: Arc::clone(&begun), ended: Arc::clone(&ended) };
        let mut lifetime_max = 0;
        for _ in 0..3 {
            let outcome = pool.run(vec![(); 64], &CancelToken::new(), job()).unwrap();
            assert_eq!(outcome.stats.claimed.iter().sum::<usize>(), 64);
            lifetime_max = outcome.results.into_iter().max().unwrap().max(lifetime_max);
        }
        // some worker ran more tasks than one job has per worker: its count
        // survived the jobs
        assert!(lifetime_max > 64 / 4, "state must carry over between jobs");
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        assert_eq!(begun.load(Ordering::Relaxed), 3 * 4);
        // a three-task job wakes three of the four workers
        pool.run(vec![(); 3], &CancelToken::new(), job()).unwrap();
        assert_eq!(begun.load(Ordering::Relaxed), 3 * 4 + 3);
        assert_eq!(ended.load(Ordering::Relaxed), 3 * 4 + 3);
    }

    #[test]
    fn a_dropped_pool_has_dropped_its_workers_state_and_the_next_pool_runs() {
        /// Counts the states dropped.
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        struct Noop;
        impl Job for Noop {
            type State = Counted;
            type Task = ();
            type Output = ();
            type Error = ();
            fn run(&self, _: &mut Counted, _: (), _: &CancelToken) -> Result<Option<()>, ()> {
                Ok(Some(()))
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        for round in 1..=3 {
            let counter = Arc::clone(&dropped);
            let mut pool = Pool::new(3, move |_| Counted(Arc::clone(&counter)));
            let outcome = pool.run(vec![(); 9], &CancelToken::new(), Noop).unwrap();
            assert_eq!(outcome.results.len(), 9);
            drop(pool);
            // the threads are parked, not ended, but the state is gone
            assert_eq!(dropped.load(Ordering::SeqCst), 3 * round);
        }
    }

    #[test]
    fn a_lost_hook_delivery_is_repeated_until_workers_wind_down() {
        // the task cancels the token itself (first delivery) and then
        // refuses to finish until the hook has fired a second time — which
        // only the run's watchdog can do
        let token = CancelToken::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        token.on_cancel(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let (canceller, seen) = (token.clone(), Arc::clone(&fired));
        let job = FnJob(move |_| {
            canceller.cancel();
            let deadline = Instant::now() + Duration::from_secs(5);
            while seen.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            Ok(None)
        });
        let outcome = pool(1).run(vec![0], &token, job).unwrap();
        assert!(outcome.stats.cancelled);
        assert!(fired.load(Ordering::SeqCst) >= 2, "the watchdog never re-delivered the hook");
    }
}
