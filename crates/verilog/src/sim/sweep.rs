//! Exhaustive input enumeration for small combinational designs.
//!
//! Stimulus-vector scoring (48 random vectors) can miss narrow defects; for
//! modules whose total input width is small, sweeping *every* assignment
//! through the simulator makes the functional check exhaustive — a
//! candidate passes only if it matches the golden design on the full truth
//! table. The sweep is a plain ascending counter over the concatenated
//! input bits, so it is deterministic with no RNG involved, and the same
//! driver renders correct-by-construction truth-table specs in the corpus.

/// Total bit width of a set of inputs.
pub fn total_input_bits(widths: &[u32]) -> u64 {
    widths.iter().map(|w| u64::from(*w)).sum()
}

/// All assignments of the given input widths, in ascending order of the
/// concatenated bit pattern (first input holds the least-significant bits).
///
/// Returns `None` when the total width exceeds `max_bits` (or 63, the
/// enumeration-counter limit) — the caller falls back to stimulus vectors.
pub fn exhaustive_assignments(widths: &[u32], max_bits: u32) -> Option<ExhaustiveSweep> {
    let bits = total_input_bits(widths);
    if bits > u64::from(max_bits.min(63)) {
        return None;
    }
    Some(ExhaustiveSweep { widths: widths.to_vec(), next: 0, total: 1u64 << bits })
}

/// Iterator over every input assignment; see [`exhaustive_assignments`].
#[derive(Debug, Clone)]
pub struct ExhaustiveSweep {
    widths: Vec<u32>,
    next: u64,
    total: u64,
}

impl ExhaustiveSweep {
    /// Number of assignments the full sweep visits.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Writes assignment `index` (its per-input field values) into `out`,
    /// replacing what it held, so a caller can sweep through one buffer.
    pub fn decode_into(&self, index: u64, out: &mut Vec<u64>) {
        out.clear();
        let mut rest = index;
        for w in &self.widths {
            let mask = if *w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            out.push(rest & mask);
            rest = if *w >= 64 { 0 } else { rest >> w };
        }
    }
}

impl Iterator for ExhaustiveSweep {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.next >= self.total {
            return None;
        }
        let mut values = Vec::with_capacity(self.widths.len());
        self.decode_into(self.next, &mut values);
        self.next += 1;
        Some(values)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ExhaustiveSweep {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_every_assignment_in_order() {
        let sweep = exhaustive_assignments(&[2, 1], 16).unwrap();
        assert_eq!(sweep.total(), 8);
        let all: Vec<Vec<u64>> = sweep.collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![2, 0],
                vec![3, 0],
                vec![0, 1],
                vec![1, 1],
                vec![2, 1],
                vec![3, 1],
            ]
        );
    }

    #[test]
    fn respects_the_bit_cap() {
        assert!(exhaustive_assignments(&[8, 8], 16).is_some());
        assert!(exhaustive_assignments(&[8, 9], 16).is_none());
        // Counter limit holds even with a huge cap.
        assert!(exhaustive_assignments(&[32, 32], u32::MAX).is_none());
    }

    #[test]
    fn zero_inputs_yield_the_single_empty_assignment() {
        let sweep = exhaustive_assignments(&[], 16).unwrap();
        assert_eq!(sweep.collect::<Vec<_>>(), vec![Vec::<u64>::new()]);
    }

    #[test]
    fn decode_into_matches_the_iterator_through_one_buffer() {
        let sweep = exhaustive_assignments(&[3, 2, 1], 16).unwrap();
        let mut buf = vec![99; 7];
        for (index, values) in sweep.clone().enumerate() {
            sweep.decode_into(index as u64, &mut buf);
            assert_eq!(buf, values);
        }
    }

    #[test]
    fn values_stay_within_field_width() {
        for assignment in exhaustive_assignments(&[3, 2, 1], 16).unwrap() {
            assert!(assignment[0] < 8 && assignment[1] < 4 && assignment[2] < 2);
        }
    }
}
