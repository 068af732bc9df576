//! Fresh identifiers for the compiler.

/// A monotonically increasing generator for fresh identifiers, used by the
/// compiler to invent variable names (e.g. the `x1` edge variable in Figure 3)
/// without colliding with user-written names.
#[derive(Debug, Default, Clone)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    /// Create a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the next integer.
    pub fn next_id(&mut self) -> u32 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Return a fresh name with the given prefix, e.g. `x1`, `x2`, ...
    /// The first generated name is `<prefix>1` to match the paper's figures.
    pub fn fresh(&mut self, prefix: &str) -> String {
        let v = self.next_id() + 1;
        format!("{prefix}{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idgen_produces_sequential_fresh_names() {
        let mut g = IdGen::new();
        assert_eq!(g.fresh("x"), "x1");
        assert_eq!(g.fresh("x"), "x2");
        assert_eq!(g.fresh("v"), "v3");
    }

    #[test]
    fn idgen_next_id_starts_at_zero() {
        let mut g = IdGen::new();
        assert_eq!(g.next_id(), 0);
        assert_eq!(g.next_id(), 1);
    }
}
