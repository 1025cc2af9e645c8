//! Exact-delta check that a `concat_cols` value is a workspace buffer: it
//! counts toward `live_bytes` when evaluated and leaves the counter where
//! it started once the tape releases it.
//!
//! The workspace counters are process-global, so this is the only test in
//! its integration binary.

use skipnode_autograd::Tape;
use skipnode_tensor::workspace;

const F32: i64 = std::mem::size_of::<f32>() as i64;

#[test]
fn concat_cols_value_round_trips_through_the_workspace() {
    let start = workspace::stats().live_bytes;
    {
        let mut tape = Tape::new();
        let mut a = workspace::take(7, 3);
        a.as_mut_slice().fill(1.5);
        let mut b = workspace::take(7, 5);
        b.as_mut_slice().fill(-2.0);
        let a = tape.constant(a);
        let b = tape.constant(b);
        let leaves = workspace::stats().live_bytes;
        assert_eq!(leaves, start + 7 * (3 + 5) * F32);

        let cat = tape.concat_cols(&[a, b, a]);
        assert_eq!(
            workspace::stats().live_bytes,
            leaves + 7 * (3 + 5 + 3) * F32,
            "the concat value was not taken from the workspace"
        );
        let row: Vec<f32> = tape.value(cat).row(6).to_vec();
        let mut want = vec![1.5; 3];
        want.extend([-2.0; 5]);
        want.extend([1.5; 3]);
        assert_eq!(row, want);
    }
    assert_eq!(
        workspace::stats().live_bytes,
        start,
        "releasing the tape did not return live_bytes to its start"
    );
}
