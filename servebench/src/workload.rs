//! Workload inputs: the matrices each traffic mix uploads, the seeded
//! request sequence, and the serial references every response is
//! verified against.
//!
//! Everything here is derived from the workload seed, and nothing in
//! it is timed as part of `setup_s`: generation, MatrixMarket
//! serialisation and the reference SpMVs all happen before the bind.

use spmv_serve::{build_x, digest};
use spmv_sparse::gen::suite::suite_by_name;
use spmv_sparse::gen::{banded, powerlaw, Archetype};
use spmv_sparse::{mm, Csr};

/// Distinct request vectors per matrix. Requests draw their `seed n`
/// spec from this many seeded values, so references are computed
/// once per value instead of once per request.
pub const X_SEEDS: usize = 32;

/// Relative tolerance for tuned full vectors: every element must
/// satisfy `|y_i - ref_i| <= TUNED_RTOL * max_k (|A||x|)_k`. The
/// tuned kernels only reassociate row sums, whose error is a few ulps
/// of that scale.
pub const TUNED_RTOL: f64 = 1e-12;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallDigest,
    LargeDigest,
    LargeFullvec,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SmallDigest, Kind::LargeDigest, Kind::LargeFullvec];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallDigest => "small-digest",
            Kind::LargeDigest => "large-digest",
            Kind::LargeFullvec => "large-fullvec",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Kind::SmallDigest => {
                "a 2000x7-band matrix that fits in one L2, so connection setup, HTTP parse and \
                 scheduler handoff dominate and kernel changes should move nothing"
            }
            Kind::LargeDigest => {
                "two ~1M-nnz matrices (regular band, power-law web_google) with digest replies, \
                 so kernel time dominates and HTTP changes should move nothing"
            }
            Kind::LargeFullvec => {
                "the ~1M-nnz band matrix returning full hex vectors (~1.19 MB), so encoding, \
                 writing and transfer dominate over the same kernel"
            }
        }
    }

    /// Whether replies are FNV digests (`digest=1`) or full vectors.
    pub fn digest(self) -> bool {
        !matches!(self, Kind::LargeFullvec)
    }
}

/// Problem sizes: the real ones, or a tiny set for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub small_rows: usize,
    pub large_rows: usize,
    /// Scale applied to the suite's `web_google` preset.
    pub powerlaw_scale: f64,
}

impl Size {
    /// The sizes the workloads are defined at: the load generator's
    /// 2000×7 and 70000×7 bands, and `web_google` scaled to ~1M nnz.
    pub const FULL: Size = Size { small_rows: 2000, large_rows: 70_000, powerlaw_scale: 0.37 };
    /// Smoke-test sizes.
    #[cfg(test)]
    pub const TINY: Size = Size { small_rows: 200, large_rows: 700, powerlaw_scale: 0.004 };
}

/// One matrix of a workload with its upload body and references.
pub struct Matrix {
    pub name: String,
    pub csr: Csr,
    /// MatrixMarket text, as uploaded to `POST /v1/matrices/{name}`.
    pub upload: Vec<u8>,
    /// The `seed n` values requests draw from.
    pub x_seeds: Vec<u64>,
    /// FNV digest of the serial reference result per `x_seeds` entry.
    pub ref_digest: Vec<u64>,
    /// Full serial reference results (full-vector workloads only).
    pub ref_y: Vec<Vec<f64>>,
    /// `max_k (|A||x|)_k` per `x_seeds` entry (full-vector workloads
    /// only): the scale of the tuned-mode tolerance.
    pub ref_scale: Vec<f64>,
}

impl Matrix {
    fn new(name: String, csr: Csr, seed: u64, full: bool) -> Matrix {
        let mut upload = Vec::new();
        mm::write_csr(&mut upload, &csr).expect("serialise matrix");
        let x_seeds: Vec<u64> =
            (0..X_SEEDS as u64).map(|j| mix(seed ^ 0x5eed, j) % 1_000_000).collect();
        let mut ref_digest = Vec::new();
        let mut ref_y = Vec::new();
        let mut ref_scale = Vec::new();
        for &s in &x_seeds {
            let x = build_x(&format!("seed {s}"), csr.ncols()).expect("request spec");
            let mut y = vec![0.0; csr.nrows()];
            csr.spmv(&x, &mut y);
            ref_digest.push(digest(&y));
            if full {
                let scale = csr
                    .rows()
                    .map(|(_, cols, vals)| {
                        cols.iter().zip(vals).map(|(&c, v)| (v * x[c as usize]).abs()).sum()
                    })
                    .fold(0.0f64, f64::max);
                ref_scale.push(scale);
                ref_y.push(y);
            }
        }
        Matrix { name, csr, upload, x_seeds, ref_digest, ref_y, ref_scale }
    }

    /// Bytes one SpMV on this matrix moves by count, not by
    /// measurement: the CSR arrays plus `x` and `y`.
    pub fn computed_bytes(&self) -> f64 {
        let a = &self.csr;
        let csr = a.nnz() * (8 + 4) + (a.nrows() + 1) * 8;
        (csr + a.ncols() * 8 + a.nrows() * 8) as f64
    }
}

/// A generated workload: its matrices and request sequence.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub matrices: Vec<Matrix>,
}

/// One request of the seeded sequence.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub matrix: usize,
    pub tuned: bool,
    /// Index into the matrix's `x_seeds`.
    pub x: usize,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Workload {
        let full = !kind.digest();
        let band = |rows: usize| {
            let a = banded(rows, 7, 0.9, seed).expect("banded generator");
            Matrix::new(format!("banded-{rows}x7"), a, seed, full)
        };
        let matrices = match kind {
            Kind::SmallDigest => vec![band(size.small_rows)],
            Kind::LargeFullvec => vec![band(size.large_rows)],
            Kind::LargeDigest => {
                let preset = suite_by_name("web_google").expect("web_google preset");
                let Archetype::Powerlaw { n, avg_deg, alpha } = preset.archetype else {
                    panic!("web_google is a power-law preset");
                };
                let rows = ((n as f64 * size.powerlaw_scale).round() as usize).max(16);
                let web = powerlaw(rows, avg_deg, alpha, seed).expect("power-law generator");
                vec![band(size.large_rows), Matrix::new("web_google".into(), web, seed, full)]
            }
        };
        Workload { kind, seed, matrices }
    }

    /// Request `i` of the sequence: matrix, mode and input vector are
    /// drawn from the workload seed, half the requests in each mode.
    pub fn request(&self, i: u64) -> Request {
        let h = mix(self.seed, i);
        Request {
            matrix: (h % self.matrices.len() as u64) as usize,
            tuned: (h >> 20) & 1 == 1,
            x: ((h >> 32) % X_SEEDS as u64) as usize,
        }
    }

    /// The request's HTTP target and body.
    pub fn target(&self, r: Request) -> (String, String) {
        let m = &self.matrices[r.matrix];
        let mut query = Vec::new();
        if self.kind.digest() {
            query.push("digest=1");
        }
        if r.tuned {
            query.push("mode=tuned");
        }
        let mut target = format!("/v1/spmv/{}", m.name);
        if !query.is_empty() {
            target = format!("{target}?{}", query.join("&"));
        }
        (target, format!("seed {}", m.x_seeds[r.x]))
    }

    /// Whether one 200 reply verifies: exact results bitwise against the
    /// serial reference (digest or full vector), tuned full vectors
    /// within [`TUNED_RTOL`], tuned digests by shape only (a batched
    /// tuned request runs on the scalar SpMM kernel, so its bits
    /// depend on batching).
    pub fn check(&self, r: Request, body: &[u8]) -> bool {
        let m = &self.matrices[r.matrix];
        let Ok(text) = std::str::from_utf8(body) else {
            return false;
        };
        if self.kind.digest() {
            let mut tokens = text.split_whitespace();
            match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
                (Some("digest"), Some(h), Some("rid"), Some(rid)) if rid.parse::<u64>().is_ok() => {
                    match u64::from_str_radix(h, 16) {
                        Ok(d) => r.tuned || d == m.ref_digest[r.x],
                        Err(_) => false,
                    }
                }
                _ => false,
            }
        } else {
            let reference = &m.ref_y[r.x];
            let tol = TUNED_RTOL * m.ref_scale[r.x];
            let mut n = 0usize;
            let mut ok = true;
            for line in text.lines() {
                let got = match u64::from_str_radix(line.trim(), 16) {
                    Ok(bits) => f64::from_bits(bits),
                    Err(_) => return false,
                };
                let Some(&want) = reference.get(n) else {
                    return false;
                };
                ok &= if r.tuned {
                    (got - want).abs() <= tol
                } else {
                    got.to_bits() == want.to_bits()
                };
                n += 1;
            }
            ok && n == reference.len()
        }
    }

    /// Largest matrix working set of the workload, by count.
    pub fn max_computed_bytes(&self) -> f64 {
        self.matrices.iter().map(Matrix::computed_bytes).fold(0.0, f64::max)
    }
}

/// SplitMix64 over `(seed, i)`: the benchmark's only source of
/// randomness.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
