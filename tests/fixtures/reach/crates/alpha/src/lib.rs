//! One declaration of each finding class, and one used declaration of
//! each kind. `beta` is the shipped code that uses them.

#[derive(Debug, Default)]
pub struct Counter {
    /// Read by `beta`.
    pub total: u64,
    /// Only ever bumped with `+=`: a finding.
    pub bumps: u64,
}

impl Counter {
    /// Called by `beta`.
    pub fn spin(&mut self) -> u64 {
        self.bumps += 1;
        self.total += 1;
        self.total
    }
}

pub struct Tag {
    /// Read here, through a struct pattern's shorthand.
    pub name: &'static str,
    /// `beta` builds it in a literal and nothing reads it: a finding.
    pub note: &'static str,
}

impl Tag {
    /// Called by `beta`.
    pub fn name(&self) -> &'static str {
        let Tag { name, .. } = self;
        name
    }
}

pub enum Mode {
    /// Constructed by `beta`.
    Fast,
    /// Only matched, and built only by this crate's tests: a finding.
    Slow,
}

impl Mode {
    /// Called by `beta`.
    pub fn describe(&self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Slow => "slow",
        }
    }

    /// Named like `Counter::spin`, which `beta` calls, and calling only
    /// itself: a finding.
    pub const fn spin(n: u32) -> u32 {
        if n == 0 {
            0
        } else {
            Mode::spin(n - 1)
        }
    }
}

/// Used by `beta`.
pub const LIMIT: u64 = 8;

/// Used by nothing: a finding.
pub const SPARE: u64 = 9;

/// Called only by this crate's tests: a finding.
pub unsafe fn tested_only() -> u64 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_constructs_and_calls_nothing_shipped() {
        assert_eq!(Mode::Slow.describe(), "slow");
        assert_eq!(unsafe { tested_only() }, 3);
    }
}
