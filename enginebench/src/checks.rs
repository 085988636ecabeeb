//! Output checks.  Each compares what the engine returned with a result
//! computed apart from it (the writer's own model, the seeded reference) or
//! with a property snapshot isolation must have.  None compares with a
//! stored copy of an earlier output.

use crate::inputs::{decode_seq, MeterReference, READINGS_PER_TXN};
use std::collections::HashMap;

/// A failed check.
pub type Check = Result<(), String>;

/// Group atomicity (§4.3): one query must see the same writer sequence for
/// `key` in both states, since every stream transaction writes a key to
/// both with the same value.
pub fn same_seq_in_both(key: u32, a: Option<&[u8]>, b: Option<&[u8]>) -> Check {
    let sa = a.and_then(decode_seq);
    let sb = b.and_then(decode_seq);
    match (sa, sb) {
        (Some(x), Some(y)) if x == y => Ok(()),
        _ => Err(format!(
            "key {key}: state 1 holds seq {sa:?}, state 2 holds seq {sb:?} in one snapshot"
        )),
    }
}

/// A state's full contents must equal the writer's key → last committed
/// sequence model: every key of `0..table_size` present once, holding its
/// model sequence (0 if never written).
pub fn contents_match_model<V: AsRef<[u8]>>(
    rows: impl IntoIterator<Item = (u32, V)>,
    model: &HashMap<u32, u64>,
    table_size: u32,
) -> Check {
    let mut check = ModelCheck::new(model, table_size);
    for (k, v) in rows {
        if !check.row(k, v.as_ref()) {
            break;
        }
    }
    check.finish()
}

/// [`contents_match_model`] fed one row at a time (from a storage scan).
pub struct ModelCheck<'a> {
    model: &'a HashMap<u32, u64>,
    seen: Vec<bool>,
    count: u64,
    error: Option<String>,
}

impl<'a> ModelCheck<'a> {
    /// A check of a state of `table_size` keys against `model`.
    pub fn new(model: &'a HashMap<u32, u64>, table_size: u32) -> Self {
        ModelCheck {
            model,
            seen: vec![false; table_size as usize],
            count: 0,
            error: None,
        }
    }

    /// Checks one row; false once a mismatch was found.
    pub fn row(&mut self, k: u32, v: &[u8]) -> bool {
        let Some(slot) = self.seen.get_mut(k as usize) else {
            self.error = Some(format!("unexpected key {k}"));
            return false;
        };
        if std::mem::replace(slot, true) {
            self.error = Some(format!("key {k} listed twice"));
            return false;
        }
        self.count += 1;
        let want = self.model.get(&k).copied().unwrap_or(0);
        let got = decode_seq(v);
        if got != Some(want) {
            self.error = Some(format!(
                "key {k}: holds seq {got:?}, the writer committed {want}"
            ));
            return false;
        }
        true
    }

    /// The verdict over every row seen.
    pub fn finish(self) -> Check {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.count != self.seen.len() as u64 {
            return Err(format!("{} rows, expected {}", self.count, self.seen.len()));
        }
        Ok(())
    }
}

/// What one consistent read of the two pipeline states shows: the number
/// and sum of readings in the accumulating state and the highest reading
/// index in the latest-reading state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineView {
    /// Σ per-meter reading counts.
    pub count: u64,
    /// Σ per-meter sums.
    pub sum: u64,
    /// Highest reading index in the latest-reading state (`None` if empty).
    pub max_last_index: Option<u64>,
    /// Meters in violation of their specification in this view.
    pub violations: u64,
}

/// A snapshot of the pipeline states must show a prefix of the input that
/// ends at a transaction boundary (SI: a snapshot observes a prefix of the
/// commit order), and both states must show the same prefix.
pub fn view_is_prefix(view: &PipelineView, reference: &MeterReference, total: usize) -> Check {
    let boundary = (view.count as usize).div_ceil(READINGS_PER_TXN);
    if reference.readings_at(boundary, total) != view.count
        || boundary >= reference.prefix_sums.len()
    {
        return Err(format!(
            "{} readings is not a transaction boundary",
            view.count
        ));
    }
    if reference.prefix_sums[boundary] != view.sum {
        return Err(format!(
            "total {} after {} readings, the input's prefix sum is {}",
            view.sum, view.count, reference.prefix_sums[boundary]
        ));
    }
    let want_last = view.count.checked_sub(1);
    if view.max_last_index != want_last {
        return Err(format!(
            "latest-reading state ends at index {:?}, accumulating state at {:?}",
            view.max_last_index, want_last
        ));
    }
    Ok(())
}

/// The pipeline's verify results: one per transaction, each a prefix
/// view, never going backwards, the last one showing the whole input.
pub fn verify_results(
    results: &[PipelineView],
    txns: usize,
    reference: &MeterReference,
    total: usize,
) -> Check {
    if results.len() != txns {
        return Err(format!(
            "{} verify results for {txns} transactions",
            results.len()
        ));
    }
    let mut prev = 0;
    for r in results {
        view_is_prefix(r, reference, total)?;
        if r.count < prev {
            return Err(format!(
                "verify results went back from {prev} to {}",
                r.count
            ));
        }
        prev = r.count;
    }
    match results.last() {
        Some(r) if r.count != total as u64 => Err(format!(
            "last verify result shows {} of {total} readings",
            r.count
        )),
        Some(r) if r.violations != reference.violations.len() as u64 => Err(format!(
            "last verify result shows {} violations, the reference {}",
            r.violations,
            reference.violations.len()
        )),
        _ => Ok(()),
    }
}

/// Final pipeline states against the reference: per-meter (count, sum),
/// last reading per meter, and the violation set.
pub fn meter_states_match(
    sums: &HashMap<u32, (u64, u64)>,
    last: &HashMap<u32, (u64, u64)>,
    violations: &[u32],
    reference: &MeterReference,
) -> Check {
    for (m, want) in reference.sums.iter().enumerate() {
        let got = sums.get(&(m as u32)).copied().unwrap_or((0, 0));
        if got != *want {
            return Err(format!(
                "meter {m}: (count, sum) {got:?}, reference {want:?}"
            ));
        }
    }
    for (m, want) in reference.last.iter().enumerate() {
        let got = last.get(&(m as u32)).copied();
        if got != *want {
            return Err(format!(
                "meter {m}: last reading {got:?}, reference {want:?}"
            ));
        }
    }
    let extra = sums.len().max(last.len()) as u64;
    let expected = reference.sums.iter().filter(|s| s.0 > 0).count() as u64;
    if extra != expected {
        return Err(format!(
            "{extra} meters in the states, {expected} in the reference"
        ));
    }
    if violations != reference.violations.as_slice() {
        return Err(format!(
            "{} violations, reference {}",
            violations.len(),
            reference.violations.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{encode_seq, MeterInputs};

    #[test]
    fn mismatched_state_pair_fails() {
        assert!(same_seq_in_both(1, Some(&encode_seq(3)), Some(&encode_seq(3))).is_ok());
        assert!(same_seq_in_both(1, Some(&encode_seq(3)), Some(&encode_seq(2))).is_err());
        assert!(same_seq_in_both(1, Some(&encode_seq(3)), None).is_err());
    }

    #[test]
    fn reopened_state_missing_an_acknowledged_commit_fails() {
        let model: HashMap<u32, u64> = [(2, 7)].into();
        let good = (0..4u32).map(|k| (k, encode_seq(if k == 2 { 7 } else { 0 })));
        assert!(contents_match_model(good, &model, 4).is_ok());
        // Commit 7 was acknowledged, but the reopened state still holds 6.
        let stale = (0..4u32).map(|k| (k, encode_seq(if k == 2 { 6 } else { 0 })));
        assert!(contents_match_model(stale, &model, 4).is_err());
        let short = (0..3u32).map(|k| (k, encode_seq(0)));
        assert!(contents_match_model(short, &HashMap::new(), 4).is_err());
    }

    fn reference() -> (MeterInputs, MeterReference) {
        let inputs = MeterInputs::new(11, 350);
        let r = MeterReference::of(&inputs);
        (inputs, r)
    }

    fn view_after(inputs: &MeterInputs, n: usize) -> PipelineView {
        PipelineView {
            count: n as u64,
            sum: inputs.readings[..n].iter().map(|r| r.value).sum(),
            max_last_index: n.checked_sub(1).map(|i| i as u64),
            violations: 0,
        }
    }

    #[test]
    fn report_total_that_is_not_a_prefix_sum_fails() {
        let (inputs, r) = reference();
        assert!(view_is_prefix(&view_after(&inputs, 200), &r, 350).is_ok());
        assert!(view_is_prefix(&view_after(&inputs, 350), &r, 350).is_ok());
        // A torn read: 150 readings is inside a transaction.
        assert!(view_is_prefix(&view_after(&inputs, 150), &r, 350).is_err());
        // A boundary count with a wrong total.
        let mut bad = view_after(&inputs, 200);
        bad.sum += 1;
        assert!(view_is_prefix(&bad, &r, 350).is_err());
        // The two states at different prefixes.
        let mut torn = view_after(&inputs, 200);
        torn.max_last_index = Some(299);
        assert!(view_is_prefix(&torn, &r, 350).is_err());
    }

    #[test]
    fn missing_reading_fails() {
        let (inputs, r) = reference();
        let mut sums = HashMap::new();
        let mut last = HashMap::new();
        for x in &inputs.readings {
            let e = sums.entry(x.meter).or_insert((0, 0));
            e.0 += 1;
            e.1 += x.value;
            last.insert(x.meter, (x.index, x.value));
        }
        assert!(meter_states_match(&sums, &last, &r.violations, &r).is_ok());
        let dropped = inputs.readings[17];
        let e = sums.get_mut(&dropped.meter).unwrap();
        e.0 -= 1;
        e.1 -= dropped.value;
        assert!(meter_states_match(&sums, &last, &r.violations, &r).is_err());
    }

    #[test]
    fn verify_results_need_one_per_transaction() {
        let (inputs, r) = reference();
        let mut results: Vec<_> = [100, 200, 300, 350]
            .iter()
            .map(|n| view_after(&inputs, *n))
            .collect();
        results.last_mut().unwrap().violations = r.violations.len() as u64;
        assert!(verify_results(&results, 4, &r, 350).is_ok());
        assert!(verify_results(&results[1..], 4, &r, 350).is_err());
        results.swap(0, 1);
        assert!(verify_results(&results, 4, &r, 350).is_err());
    }
}
