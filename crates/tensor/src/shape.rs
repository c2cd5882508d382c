//! Shape bookkeeping helpers shared by tensor operations.

/// Returns the total number of elements implied by `shape`.
///
/// The empty shape `[]` denotes a scalar and has one element.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Splits `shape` into `(batch, rows, cols)` treating all leading dimensions
/// as one flattened batch dimension. Requires rank >= 2.
pub fn batch_dims(shape: &[usize]) -> (usize, usize, usize) {
    assert!(
        shape.len() >= 2,
        "matrix view requires rank >= 2, got shape {shape:?}"
    );
    let cols = shape[shape.len() - 1];
    let rows = shape[shape.len() - 2];
    let batch = shape[..shape.len() - 2].iter().product();
    (batch, rows, cols)
}

/// Checks that `a` and `b` are identical shapes, panicking with a useful
/// message otherwise. Used by element-wise ops where we deliberately do not
/// support NumPy-style implicit broadcasting (explicit ops exist instead).
pub fn assert_same_shape(op: &str, a: &[usize], b: &[usize]) {
    assert!(
        a == b,
        "{op}: shape mismatch {a:?} vs {b:?} (implicit broadcasting is not supported)"
    );
}

/// True if `inner` equals the trailing dimensions of `outer`.
///
/// Used for row-broadcast ops such as bias addition, where a `[d]` tensor is
/// added to every row of a `[..., d]` tensor.
pub fn is_trailing_of(inner: &[usize], outer: &[usize]) -> bool {
    inner.len() <= outer.len() && outer[outer.len() - inner.len()..] == *inner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_counts_elements() {
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[5]), 5);
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[7, 0, 3]), 0);
    }

    #[test]
    fn batch_dims_flattens_leading() {
        assert_eq!(batch_dims(&[4, 5]), (1, 4, 5));
        assert_eq!(batch_dims(&[2, 3, 4, 5]), (6, 4, 5));
    }

    #[test]
    #[should_panic(expected = "rank >= 2")]
    fn batch_dims_rejects_vectors() {
        batch_dims(&[3]);
    }

    #[test]
    fn trailing_shapes() {
        assert!(is_trailing_of(&[4], &[2, 3, 4]));
        assert!(is_trailing_of(&[3, 4], &[2, 3, 4]));
        assert!(is_trailing_of(&[2, 3, 4], &[2, 3, 4]));
        assert!(!is_trailing_of(&[2], &[2, 3, 4]));
        assert!(!is_trailing_of(&[2, 3, 4, 5], &[3, 4, 5]));
    }
}
