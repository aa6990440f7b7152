//! Matrix registry: the tune-once/serve-many half of the serving
//! plane.
//!
//! Registration is the expensive, once-per-matrix path: the upload
//! streams from the socket into the MatrixMarket reader
//! (`mm::read_csr`, one byte scan over one block at a time that
//! builds CSR directly for row-ordered files), structurally
//! validated (the same [`Validated`] witness the kernels' unchecked
//! fast paths demand), and handed to the menu search, which
//! classifies the matrix's bottlenecks with three host
//! micro-benchmarks and times only the shortlist those classes map
//! to. The matrix then holds two long-lived kernel objects — the
//! **tuned** menu winner, the very kernel the search built and timed
//! (throughput path, tolerance-level reproducibility), and the
//! multi-vector **batch** kernel, which accumulates in scalar order
//! and so is bitwise-identical to the serial reference at any thread
//! count.
//! [`RegisteredMatrix::run`] is the one dispatch entry point: a tuned
//! single request runs on the tuned kernel, every other request (an
//! exact single or any coalesced batch) on the batch kernel. Serving
//! then costs one kernel dispatch per request (or per batch), which
//! is what amortizes the tuning investment across request volume —
//! the economics of Elafrou's lightweight selection method applied at
//! the service layer.
//!
//! A [`RegisteredMatrix`] is the one owner of everything about its
//! matrix: the kernels, the tuner's plan, the live roofline cell
//! (built from the tuner's bound at registration) and the ring of
//! recent request breakdowns. Nothing about a matrix is keyed by its
//! name anywhere else, so registering a name again on a new registry
//! starts from fresh state.
//!
//! The CSR itself sits behind one `Arc` shared by the matrix and its
//! two kernels, so it lives exactly as long as the last
//! `Arc<RegisteredMatrix>`: dropping the registry frees every matrix
//! no request still holds, and a registration that loses the name
//! race frees its tuned kernels and matrix on the spot. The registry
//! has no route that removes or replaces a name yet (ROADMAP).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use spmv_kernels::{SpmmKernel, SpmvKernel};
use spmv_machine::MachineModel;
use spmv_sparse::{Csr, Validated};
use spmv_telemetry::{Roofline, RooflineSample};
use spmv_tuner::menu;
use spmv_tuner::KernelPlan;

/// Longest accepted matrix name.
const MAX_NAME_LEN: usize = 64;

/// Recent observations kept per matrix for `/v1/observe`.
pub(crate) const OBSERVATION_CAP: usize = 32;

/// One completed request's stage breakdown, kept in its matrix's
/// bounded ring for `GET /v1/observe/{name}` and the load generator's
/// `--trace-sample` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The request's process-unique id.
    pub rid: u64,
    /// Batch width the request was coalesced into (1 = solo).
    pub batch: usize,
    /// Admission → batch-pop wait.
    pub queue_seconds: f64,
    /// Kernel busy seconds (slowest thread of the dispatch).
    pub kernel_seconds: f64,
    /// Admission → response delivery.
    pub total_seconds: f64,
    /// Measured dispatch throughput fed to the roofline cell.
    pub gflops: f64,
    /// Whether a result (vs. a kernel failure) was delivered.
    pub ok: bool,
}

/// One registered, tuned, ready-to-serve matrix.
pub struct RegisteredMatrix {
    name: String,
    a: Validated<Arc<Csr>>,
    /// The menu-search winner, as the search built and timed it
    /// (throughput path).
    tuned: Box<dyn SpmvKernel>,
    /// Multi-vector kernel for coalesced batches and exact singles
    /// (scalar order, so its results are bitwise-serial).
    batch: SpmmKernel,
    /// The tuner's decision record (winner, class set, candidates
    /// timed) for `/v1/matrices` introspection.
    plan: KernelPlan,
    nthreads: usize,
    /// Live attainment against the tuner's bound; `None` when that
    /// bound is not a positive finite number.
    roofline: Option<Roofline>,
    /// Recent completed-request breakdowns (bounded ring, newest
    /// last), touched once per delivery, off the kernel dispatch.
    recent: Mutex<VecDeque<Observation>>,
}

impl RegisteredMatrix {
    /// Matrix name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Columns (the request vector length).
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.a.nnz()
    }

    /// The underlying matrix (serial reference computations in tests).
    pub fn csr(&self) -> &Csr {
        &self.a
    }

    /// The tuner's winning plan, with the bottleneck classes its
    /// shortlist was drawn from.
    pub fn plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// Thread count the kernels were planned for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Runs one dispatch over the request vectors `xs` (each
    /// `ncols` long), returning one result per vector plus the
    /// kernel's busy seconds (slowest thread — the dispatch's critical
    /// path), which the scheduler feeds to the roofline cell and the
    /// request timeline. A single [`Mode::Tuned`] request runs on the
    /// tuned kernel; everything else — an exact single or any batch —
    /// runs on the batch kernel, which reads each `xs[j]` in place in
    /// scalar accumulation order, so its results are bitwise-serial.
    pub fn run(&self, xs: &[&[f64]], mode: Mode) -> (Vec<Vec<f64>>, f64) {
        let mut ys: Vec<Vec<f64>> = xs.iter().map(|_| vec![0.0; self.nrows()]).collect();
        let times = match (mode, xs, ys.as_mut_slice()) {
            (Mode::Tuned, [x], [y]) => self.tuned.run_timed(x, y),
            _ => self.batch.run_multi(xs, &mut ys),
        };
        (ys, times.max())
    }

    /// Folds one dispatch's measured throughput into this matrix's
    /// roofline-attainment EWMA (no-op when it has no bound).
    pub fn observe_gflops(&self, gflops: f64) {
        if let Some(r) = &self.roofline {
            r.observe(gflops);
        }
    }

    /// The live roofline attainment, `None` when the tuner's bound
    /// was not a positive finite number.
    pub fn roofline(&self) -> Option<RooflineSample> {
        self.roofline.as_ref().map(Roofline::sample)
    }

    /// Appends one completed request to the recent-request ring,
    /// dropping the oldest beyond [`OBSERVATION_CAP`].
    pub fn record_request(&self, obs: Observation) {
        let mut ring = self.recent.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= OBSERVATION_CAP {
            ring.pop_front();
        }
        ring.push_back(obs);
    }

    /// Recent completed-request breakdowns, oldest first (empty when
    /// the matrix has served nothing yet).
    pub fn recent(&self) -> Vec<Observation> {
        self.recent.lock().unwrap_or_else(|p| p.into_inner()).iter().cloned().collect()
    }
}

impl fmt::Debug for RegisteredMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisteredMatrix")
            .field("name", &self.name)
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols())
            .field("nnz", &self.nnz())
            .field("kernel", &self.plan.spec.id())
            .finish()
    }
}

/// Which kernel serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Scalar-order kernel; results are bitwise-identical to the
    /// serial reference regardless of thread count or batching.
    Exact,
    /// The menu-tuned kernel; fastest, reproducible only to the
    /// workspace verification tolerance.
    Tuned,
}

impl Mode {
    /// Parses the `mode` query parameter (`None`/empty = exact).
    pub fn parse(s: Option<&str>) -> Result<Mode, String> {
        match s {
            None | Some("") | Some("exact") => Ok(Mode::Exact),
            Some("tuned") => Ok(Mode::Tuned),
            Some(other) => Err(format!("unknown mode {other:?} (expected exact|tuned)")),
        }
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// Name is empty, too long, or contains characters outside
    /// `[A-Za-z0-9._-]`.
    InvalidName(String),
    /// A matrix with this name is already registered.
    Duplicate(String),
    /// The matrix failed structural validation.
    Invalid(String),
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::InvalidName(n) => write!(f, "invalid matrix name {n:?}"),
            RegisterError::Duplicate(n) => write!(f, "matrix {n:?} already registered"),
            RegisterError::Invalid(e) => write!(f, "matrix failed validation: {e}"),
        }
    }
}

/// The concurrent name → matrix map. Lookups clone an `Arc`;
/// registration holds the lock only around the map insert, not around
/// tuning.
#[derive(Default)]
pub struct MatrixRegistry {
    matrices: Mutex<HashMap<String, Arc<RegisteredMatrix>>>,
    /// Profiling reps per menu-search candidate (1 in tests for
    /// speed, higher for stable production selections).
    tune_reps: usize,
    nthreads: usize,
}

impl MatrixRegistry {
    /// Creates a registry whose kernels are planned for `nthreads`
    /// and tuned with `tune_reps` profiling reps per candidate.
    pub fn new(nthreads: usize, tune_reps: usize) -> MatrixRegistry {
        MatrixRegistry {
            matrices: Mutex::new(HashMap::new()),
            tune_reps: tune_reps.max(1),
            nthreads: nthreads.max(1),
        }
    }

    /// Validates, tunes and registers a matrix under `name`.
    ///
    /// The tuning search runs outside the registry lock, so a slow
    /// registration does not block serving lookups; two concurrent
    /// registrations under one name race to the insert and the loser
    /// gets [`RegisterError::Duplicate`] (its kernels and matrix are
    /// freed on return).
    pub fn register(&self, name: &str, a: Csr) -> Result<Arc<RegisteredMatrix>, RegisterError> {
        if !valid_name(name) {
            return Err(RegisterError::InvalidName(name.to_string()));
        }
        if self.lock().contains_key(name) {
            return Err(RegisterError::Duplicate(name.to_string()));
        }
        // The one structural check: the witness it yields is what the
        // search's kernels and the batch kernel share.
        let a = Validated::new(Arc::new(a)).map_err(|e| RegisterError::Invalid(e.to_string()))?;
        let machine = MachineModel::host();
        let (plan, tuned) = menu::search(&a, &machine, self.nthreads, self.tune_reps);
        // The live roofline cell measures against the simulated
        // ceiling the tuner selected against; the scheduler folds in
        // measured per-dispatch throughput via `observe_gflops`.
        let roofline = Roofline::new(menu::roofline_bound_gflops(&a, &machine, plan.spec));
        let batch = SpmmKernel::new(&a, self.nthreads);
        let matrix = Arc::new(RegisteredMatrix {
            name: name.to_string(),
            a,
            tuned: tuned.kernel,
            batch,
            plan,
            nthreads: self.nthreads,
            roofline,
            recent: Mutex::new(VecDeque::new()),
        });
        match self.lock().entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(RegisterError::Duplicate(name.to_string()))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::clone(&matrix));
                Ok(matrix)
            }
        }
    }

    /// Looks up a registered matrix.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredMatrix>> {
        self.lock().get(name).cloned()
    }

    /// Registered matrices, sorted by name.
    pub fn list(&self) -> Vec<Arc<RegisteredMatrix>> {
        let mut all: Vec<_> = self.lock().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Registered matrix count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no matrix is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<RegisteredMatrix>>> {
        self.matrices.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Names are path segments in the service URLs, so keep them to a
/// conservative token alphabet.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;

    fn registry() -> MatrixRegistry {
        MatrixRegistry::new(2, 1)
    }

    #[test]
    fn register_then_serve_exact_is_bitwise_serial() {
        let reg = registry();
        let a = gen::banded(200, 4, 0.9, 3).unwrap();
        let mut y_ref = vec![0.0; a.nrows()];
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        a.spmv(&x, &mut y_ref);

        let m = reg.register("banded", a).expect("register");
        assert_eq!(m.nrows(), 200);
        let (ys, _) = m.run(&[&x], Mode::Exact);
        for (got, want) in ys[0].iter().zip(&y_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Tuned mode serves too (tolerance check only).
        let (ys, _) = m.run(&[&x], Mode::Tuned);
        for (got, want) in ys[0].iter().zip(&y_ref) {
            assert!((got - want).abs() <= 1e-10 * want.abs().max(1.0));
        }
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let reg = registry();
        reg.register("a", Csr::identity(8)).expect("first");
        assert_eq!(
            reg.register("a", Csr::identity(8)).unwrap_err(),
            RegisterError::Duplicate("a".to_string())
        );
        assert!(matches!(reg.register("", Csr::identity(4)), Err(RegisterError::InvalidName(_))));
        assert!(matches!(
            reg.register("has space", Csr::identity(4)),
            Err(RegisterError::InvalidName(_))
        ));
        assert!(matches!(
            reg.register(&"x".repeat(65), Csr::identity(4)),
            Err(RegisterError::InvalidName(_))
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn a_matrix_that_fails_validation_is_refused() {
        // A rowptr tail that overruns the element arrays.
        let reg = registry();
        let a = Csr::from_raw_unchecked(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(reg.register("bad", a), Err(RegisterError::Invalid(_))));
        assert!(reg.is_empty());
    }

    #[test]
    fn lookup_and_list() {
        let reg = registry();
        assert!(reg.is_empty());
        assert!(reg.get("missing").is_none());
        reg.register("b", Csr::identity(4)).unwrap();
        reg.register("a", Csr::identity(4)).unwrap();
        let names: Vec<_> = reg.list().iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(reg.get("a").is_some());
    }

    #[test]
    fn batch_path_is_bitwise_serial() {
        let reg = registry();
        let a = gen::powerlaw(300, 5, 2.0, 9).unwrap();
        let serial = a.clone();
        let m = reg.register("pl", a).unwrap();
        let k = 3;
        let xs: Vec<Vec<f64>> =
            (0..k).map(|j| (0..m.ncols()).map(|i| ((i + j) as f64).cos()).collect()).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        // Tuned or not, a batch runs on the scalar-order kernel.
        let (ys, _) = m.run(&x_refs, Mode::Tuned);
        assert_eq!(ys.len(), k);
        for (x, y) in xs.iter().zip(&ys) {
            let mut y_ref = vec![0.0; m.nrows()];
            serial.spmv(x, &mut y_ref);
            for (got, want) in y.iter().zip(&y_ref) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn registration_builds_the_roofline_cell() {
        let reg = registry();
        let a = gen::banded(150, 3, 0.9, 5).unwrap();
        let m = reg.register("roofline-reg-probe", a).expect("register");
        let s = m.roofline().expect("monitored");
        assert!(s.bound_gflops > 0.0, "tuner bound is a positive ceiling");
        assert_eq!(s.samples, 0, "no dispatches yet");
        m.observe_gflops(s.bound_gflops * 0.5);
        let s = m.roofline().unwrap();
        assert_eq!(s.samples, 1);
        assert!((s.attainment - 0.5).abs() < 1e-9, "attainment {}", s.attainment);
    }

    #[test]
    fn reregistering_a_name_on_a_new_registry_starts_a_fresh_roofline() {
        let a = gen::banded(100, 3, 0.9, 6).unwrap();
        let first = registry();
        let m1 = first.register("fresh-roofline", a.clone()).unwrap();
        m1.observe_gflops(1.0);
        m1.observe_gflops(2.0);
        assert_eq!(m1.roofline().expect("positive bound").samples, 2);
        let second = registry();
        let m2 = second.register("fresh-roofline", a).unwrap();
        let s = m2.roofline().expect("positive bound");
        assert_eq!(s.samples, 0, "the roofline belongs to the matrix, not its name");
        assert_eq!(s.achieved_gflops, 0.0, "no EWMA carried over");
    }

    #[test]
    fn run_reports_kernel_seconds() {
        let reg = registry();
        let a = gen::banded(200, 4, 0.9, 3).unwrap();
        let m = reg.register("timed", a).unwrap();
        let x = vec![1.0; m.ncols()];
        for mode in [Mode::Exact, Mode::Tuned] {
            let (ys, secs) = m.run(&[&x], mode);
            assert_eq!((ys.len(), ys[0].len()), (1, m.nrows()));
            assert!(secs > 0.0, "{mode:?}: busy seconds must be positive, got {secs}");
        }
        let (ys, bsecs) = m.run(&[&x, &x], Mode::Exact);
        assert_eq!(ys.len(), 2);
        assert!(bsecs > 0.0);
    }

    #[test]
    fn dropping_the_registry_frees_its_matrices() {
        // The first cycle registers the benchmark's 70 000-row band;
        // the other 99 keep to a small band so the test stays fast
        // in unoptimized builds.
        for cycle in 0..100 {
            let rows = if cycle == 0 { 70_000 } else { 1_000 };
            let reg = MatrixRegistry::new(1, 1);
            let m = reg.register("band", gen::banded(rows, 3, 1.0, 7).unwrap()).expect("register");
            let csr = Arc::downgrade(&m.a);
            drop(reg);
            drop(m);
            assert!(csr.upgrade().is_none(), "cycle {cycle}: the CSR outlived its owners");
        }
    }

    #[test]
    fn a_matrix_outlives_its_registry_and_stays_bitwise_serial() {
        let a = gen::powerlaw(2_000, 6, 2.0, 4).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y_ref = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_ref);
        let reg = registry();
        let m = reg.register("held", a).expect("register");
        let csr = Arc::downgrade(&m.a);
        drop(reg);
        let (ys, _) = m.run(&[&x], Mode::Exact);
        for (got, want) in ys[0].iter().zip(&y_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        drop(m);
        assert!(csr.upgrade().is_none(), "the last handle frees the CSR");
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse(None), Ok(Mode::Exact));
        assert_eq!(Mode::parse(Some("exact")), Ok(Mode::Exact));
        assert_eq!(Mode::parse(Some("tuned")), Ok(Mode::Tuned));
        assert!(Mode::parse(Some("fast")).is_err());
    }
}
