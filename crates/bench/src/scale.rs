//! Experiment sizing.

/// Instance sizes for the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk instances for smoke tests (seconds for the whole suite).
    Quick,
    /// The sizes the experiments are specified at (minutes for the whole
    /// suite).
    Full,
}

impl Scale {
    /// Picks `q` under `Quick`, `f` under `Full`.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
