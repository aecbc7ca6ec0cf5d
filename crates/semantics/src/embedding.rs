//! Dense embeddings and cosine similarity (the right-hand side of the paper's Eq. 1).

/// A dense `d`-dimensional embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    values: Vec<f64>,
}

impl Embedding {
    /// The zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            values: vec![0.0; dim],
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Raw components.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True when the vector is (numerically) zero.
    pub fn is_zero(&self) -> bool {
        self.norm() < 1e-12
    }

    /// Adds `other * weight` into this embedding in place.
    pub fn add_scaled(&mut self, other: &Embedding, weight: f64) {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b * weight;
        }
    }

    /// Returns a unit-norm copy (or the zero vector unchanged).
    pub fn normalized(&self) -> Embedding {
        let mut copy = self.clone();
        copy.normalize();
        copy
    }

    /// Scales the vector to unit norm in place (the zero vector stays as it is).
    pub(crate) fn normalize(&mut self) {
        let n = self.norm();
        if n < 1e-12 {
            return;
        }
        for v in &mut self.values {
            *v /= n;
        }
    }

    /// Makes this the zero vector of dimension `dim`, keeping the allocation.
    pub(crate) fn set_zeros(&mut self, dim: usize) {
        self.values.clear();
        self.values.resize(dim, 0.0);
    }

    /// Dot product.
    pub fn dot(&self, other: &Embedding) -> f64 {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        self.values.iter().zip(&other.values).map(|(a, b)| a * b).sum()
    }

    /// Cosine similarity in `[-1, 1]` — Eq. 1 of the paper. Zero vectors yield 0.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        let na = self.norm();
        let nb = other.norm();
        if na < 1e-12 || nb < 1e-12 {
            return 0.0;
        }
        (self.dot(other) / (na * nb)).clamp(-1.0, 1.0)
    }

    /// Deterministic pseudo-random unit vector for an arbitrary label.
    ///
    /// The generator is a splitmix64-style hash expanded per component and mapped through a
    /// Box–Muller-free approximation (sum of uniforms) to a roughly Gaussian distribution,
    /// which keeps base directions of distinct labels near-orthogonal in high dimensions.
    pub fn seeded_direction(label: &str, dim: usize) -> Embedding {
        let seed = fnv1a(label.as_bytes());
        let mut state = seed;
        let mut values = Vec::with_capacity(dim);
        for _ in 0..dim {
            // Sum of 4 uniforms in [-0.5, 0.5] ~ approximately normal (variance 1/3).
            let mut acc = 0.0;
            for _ in 0..4 {
                state = splitmix64(state);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                acc += u - 0.5;
            }
            values.push(acc);
        }
        Embedding { values }.normalized()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_directions_are_deterministic_and_unit_norm() {
        let a = Embedding::seeded_direction("dog", 64);
        let b = Embedding::seeded_direction("dog", 64);
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_labels_are_nearly_orthogonal() {
        let labels = [
            "dog",
            "scoreboard",
            "grass",
            "jersey",
            "slide",
            "car",
            "chef",
            "tree",
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                let cos = Embedding::seeded_direction(a, 64).cosine(&Embedding::seeded_direction(b, 64));
                assert!(cos.abs() < 0.35, "{a} vs {b}: {cos}");
            }
        }
    }

    #[test]
    fn cosine_identity_and_bounds() {
        let a = Embedding::seeded_direction("x", 32);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        let b = Embedding::seeded_direction("y", 32);
        assert!((-1.0..=1.0).contains(&a.cosine(&b)));
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = Embedding::zeros(16);
        let a = Embedding::seeded_direction("x", 16);
        assert_eq!(z.cosine(&a), 0.0);
        assert!(z.is_zero());
    }

    #[test]
    fn add_scaled_and_normalize() {
        let a = Embedding::seeded_direction("a", 8);
        let mut sum = Embedding::zeros(8);
        sum.add_scaled(&a, 2.0);
        assert!((sum.norm() - 2.0).abs() < 1e-9);
        assert!((sum.normalized().cosine(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Embedding::zeros(8);
        let b = Embedding::zeros(16);
        let _ = a.dot(&b);
    }
}
