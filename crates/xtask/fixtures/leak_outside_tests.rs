//! Audit fixture: `Box::leak` in (virtual) library code. Scanned
//! under any `src/` tree it must trigger only the `leak-free` policy
//! — the leak in `pin_forever` — while the `#[cfg(test)]` module's
//! leak stays quiet.
//! Not compiled — scanned only by `cargo xtask audit`'s self-test.

pub struct Matrix(Vec<f64>);

pub fn pin_forever(m: Matrix) -> &'static Matrix {
    Box::leak(Box::new(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_matrix() -> &'static Matrix {
        Box::leak(Box::new(Matrix(vec![1.0])))
    }
}
