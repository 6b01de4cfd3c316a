//! Order statistics and the metric table the benchmark prints.

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile of
/// {50, 75, 90, 95, 99, 99.9, 99.99} that leaves at least ten samples
/// strictly beyond it. Returns (value, percentile, samples beyond it).
/// Falls back to the median (with the samples above it) when the sample
/// is too small for any.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    if v.is_empty() {
        return (0.0, 50.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    for p in [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let i = rank(p);
        if n - 1 - i >= 10 {
            return (s[i], p, n - 1 - i);
        }
    }
    (median(v), 50.0, n / 2)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Metrics in insertion order; setting a name twice overwrites it.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, better: &'static str) {
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        };
        match self.0.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (x, p, beyond) = tail(&v);
        assert_eq!((p, beyond), (99.0, 10));
        assert_eq!(x, 990.0);
        let (_, p_small, _) = tail(&v[..30]);
        assert_eq!(p_small, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
