//! The one parallel coding executor (paper §IV-A): a chunk's packet
//! dimension cut into stripes, and scoped workers that take the stripes
//! off one shared queue.
//!
//! XOR schedules act independently on every byte column, so the rows
//! `[lo, hi)` of every sub-packet of every chunk — a *stripe* — code on
//! their own. [`Geometry`] is the stripe rule; [`Geometry::split`] cuts
//! the output chunks, before any task runs, into each stripe's disjoint
//! row slices; [`run`] hands the stripes to up to `threads` workers in
//! order and returns what each task produced in stripe order. The save
//! executor and [`crate::CodingPool`] both run on it.
//!
//! There is no stealing: every worker pulls its next stripe from the same
//! queue, so a slow worker holds only the stripe it is coding. Results come
//! back keyed by stripe, never by worker, so anything a caller derives from
//! them — outputs, counters, deferred trace spans — is a function of the
//! geometry alone, whatever the thread count.

use std::sync::Mutex;

/// Stripe geometry of a chunk of `w · ps` bytes.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Source chunks of the code.
    pub k: usize,
    /// Output chunks the stripes are cut from.
    pub m: usize,
    /// Sub-packets per chunk (the field width).
    pub w: usize,
    /// Sub-packet length: `chunk_len / w`, a positive multiple of 8
    /// (chunk lengths are multiples of `w · 8`).
    pub ps: usize,
    /// Rows of a full stripe (a multiple of 8, so every stripe stays
    /// coding-aligned); the last stripe may be shorter.
    pub rows: usize,
    /// Stripes the packet dimension is cut into.
    pub stripes: usize,
}

impl Geometry {
    /// The stripe rule: `rows = min(buffer / w, ps / 8)` rows of each
    /// sub-packet, rounded down to a multiple of 8 and at least 8. The
    /// buffer caps the bytes of each sub-packet one task touches
    /// (`usize::MAX` for no cap); the eighth gives the workers at least
    /// eight stripes to share whenever a sub-packet has 64 rows. Both are
    /// sizes: the cut never depends on the thread count.
    pub fn new(k: usize, m: usize, w: usize, chunk_len: usize, buffer: usize) -> Self {
        let ps = chunk_len / w;
        let rows = ((buffer / w).min(ps / 8) / 8 * 8).max(8);
        Self { k, m, w, ps, rows, stripes: ps.div_ceil(rows) }
    }

    /// `[lo, hi)` row range of stripe `stripe` within the packet dimension.
    pub fn rows_of(&self, stripe: usize) -> (usize, usize) {
        let lo = stripe * self.rows;
        (lo, (lo + self.rows).min(self.ps))
    }

    /// Cuts `chunks` (each `w · ps` bytes) into every stripe's row
    /// slices: entry `b` holds stripe `b`'s rows of each chunk's `w`
    /// sub-packets, chunk-major, then sub-packet — the `out` layout
    /// [`crate::ErasureCode::encode_stripe_into`] fills.
    pub fn split<'a>(&self, chunks: &'a mut [Vec<u8>]) -> Vec<Vec<&'a mut [u8]>> {
        let mut slices: Vec<Vec<&mut [u8]>> =
            (0..self.stripes).map(|_| Vec::with_capacity(chunks.len() * self.w)).collect();
        for sub in chunks.iter_mut().flat_map(|chunk| chunk.chunks_mut(self.ps)) {
            for (stripe, rows) in sub.chunks_mut(self.rows).enumerate() {
                slices[stripe].push(rows);
            }
        }
        slices
    }
}

/// Runs `task(b, tasks[b])` for every stripe `b` on `min(threads,
/// tasks.len())` scoped workers (at least one) that take stripes in
/// order off one shared queue. Returns the results in
/// stripe order, or `None` when a worker panicked: the run is then
/// incomplete, and the workers still alive drain the queue before the
/// join, so nothing hangs.
pub fn run<T, R, F>(threads: usize, tasks: Vec<T>, task: F) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = threads.min(tasks.len()).max(1);
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let worker = || {
        let mut done = Vec::new();
        loop {
            let Some((stripe, input)) =
                queue.lock().expect("no worker panics holding the stripe queue").next()
            else {
                return done;
            };
            done.push((stripe, task(stripe, input)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let joined: Result<Vec<_>, _> = handles.into_iter().map(|handle| handle.join()).collect();
        joined.ok()
    })?
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(stripe, _)| stripe);
    Some(done.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn geometry_covers_every_row_exactly_once() {
        for (chunk_len, w, buffer) in [
            (256usize, 8usize, 64usize),
            (4096, 8, 4096),
            (768, 4, 100),
            (64, 8, 1 << 20),
            (1 << 20, 8, 4 << 20),
        ] {
            let geo = Geometry::new(2, 2, w, chunk_len, buffer);
            assert!(geo.rows.is_multiple_of(8), "rows {} must stay aligned", geo.rows);
            let mut covered = 0;
            for b in 0..geo.stripes {
                let (lo, hi) = geo.rows_of(b);
                assert_eq!(lo, covered, "stripes must tile the packet dimension");
                assert!(hi > lo);
                covered = hi;
            }
            assert_eq!(covered, geo.ps, "chunk_len={chunk_len} w={w} buffer={buffer}");
            // The buffer caps a stripe; a sub-packet of 64 rows or more
            // always yields at least eight.
            assert!(geo.rows <= (buffer / w).max(8), "chunk_len={chunk_len} buffer={buffer}");
            if geo.ps >= 64 {
                assert!(geo.stripes >= 8, "chunk_len={chunk_len}: {} stripes", geo.stripes);
            }
        }
    }

    /// The split hands stripe `b` exactly rows `rows_of(b)` of every
    /// sub-packet of every chunk, chunk-major.
    #[test]
    fn split_matches_rows_of() {
        let geo = Geometry::new(2, 3, 4, 4 * 200, usize::MAX);
        let mut chunks: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 4 * 200]).collect();
        for (b, stripe) in geo.split(&mut chunks).into_iter().enumerate() {
            let (lo, hi) = geo.rows_of(b);
            assert_eq!(stripe.len(), 3 * 4);
            for (s, rows) in stripe.into_iter().enumerate() {
                assert_eq!(rows.len(), hi - lo, "stripe {b} slice {s}");
                rows.fill((s * 16 + b) as u8);
            }
        }
        for (i, chunk) in chunks.iter().enumerate() {
            for (row, &byte) in chunk.iter().enumerate() {
                let (c, r) = (row / geo.ps, row % geo.ps);
                assert_eq!(byte as usize, (i * 4 + c) * 16 + r / geo.rows, "chunk {i} byte {row}");
            }
        }
    }

    /// Many tiny tasks over many workers: every task runs exactly once and
    /// the results come back in task order.
    #[test]
    fn run_executes_every_task_once_in_order() {
        let runs: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<(usize, usize)> = (0..257).map(|i| (i, i + 1)).collect();
        let results = run(16, tasks, |id, (lo, hi)| {
            assert_eq!((lo, hi), (id, id + 1));
            runs[id].fetch_add(1, Ordering::Relaxed);
            id
        });
        assert_eq!(results, Some((0..257).collect()));
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }

    /// The worker holding stripe 1 finishes last: a barrier keeps it in
    /// stripe 1 until the other worker holds stripe 0, and it then waits
    /// until that worker has run stripes 2 to 7. In worker order the
    /// results would read 0, 2, …, 7, 1 or 1, 0, 2, …, 7.
    #[test]
    fn results_come_back_in_stripe_order_whoever_ran_them() {
        let (barrier, later_done) = (Barrier::new(2), AtomicUsize::new(0));
        let results = run(2, vec![(); 8], |stripe, ()| {
            if stripe < 2 {
                barrier.wait();
            }
            if stripe == 1 {
                while later_done.load(Ordering::SeqCst) < 6 {
                    std::thread::yield_now();
                }
            }
            if stripe >= 2 {
                later_done.fetch_add(1, Ordering::SeqCst);
            }
            stripe
        });
        assert_eq!(results, Some((0..8).collect()));
    }

    /// A panicking task fails the run instead of hanging it, and the
    /// surviving workers still drain the queue.
    #[test]
    fn a_panicking_task_returns_none() {
        let runs = AtomicUsize::new(0);
        let results = run(4, (0..64).collect(), |id, _: usize| {
            runs.fetch_add(1, Ordering::Relaxed);
            assert_ne!(id, 5, "injected task failure");
        });
        assert!(results.is_none());
        assert_eq!(runs.load(Ordering::Relaxed), 64);
    }
}
