//! Recorded figure rows: the modeled cycles each guest reports under
//! the native and the decomposed kernel on the Rocket platform (the
//! `fig5` and `fig6` binaries' native column, and the decomposed
//! cycles behind their normalized column). Modeled cycles are
//! deterministic, so every run must reproduce them exactly; a change
//! to the timing model or the guest kernel has to update them.

/// `(name, native cycles, decomposed cycles)` per LMbench benchmark.
pub const LMBENCH: &[(&str, u64, u64)] = &[
    ("null call", 300018, 300138),
    ("read", 346141, 346261),
    ("write", 334138, 334258),
    ("stat", 326088, 326328),
    ("fstat", 338386, 338506),
    ("open/close", 644231, 644471),
    ("sig inst", 305719, 306079),
    ("sig hndl", 614259, 614499),
    ("pipe", 7367948, 7398791),
    ("ctx sw", 3546735, 3595818),
];

/// `(name, native cycles, decomposed cycles)` per application.
pub const APPS: &[(&str, u64, u64)] = &[
    ("sqlite", 2543729, 2543342),
    ("mbedtls", 3791216, 3791576),
    ("gzip", 17435487, 17435103),
    ("tar", 7405866, 7403178),
];
