//! Backend probe: report what the host CPU supports, how `Backend::Auto`
//! resolves, and check native-vs-modeled agreement on a quick mod-exp.
//!
//! ```text
//! cargo run --release --example backend_probe
//! ```
//!
//! CI's `native-backend` job runs this to log the detected feature set
//! before exercising the native backend.

use phi_bigint::BigUint;
use phiopenssl::{Backend, CpuFeatures, PhiConfig, PhiLibrary, ResolvedBackend};
use phiopenssl_suite::mont::Libcrypto;

fn main() {
    let features = CpuFeatures::detect();
    println!("cpu features : {features}");

    let auto = Backend::Auto.resolve();
    println!("Backend::Auto: resolves to {auto}");

    for backend in [Backend::ModeledKnc, Backend::NativeX86] {
        match backend.ensure_available(&features) {
            Ok(()) => println!("{backend:<22}: available"),
            Err(e) => println!("{backend:<22}: unavailable ({e})"),
        }
    }

    // A quick cross-check: both backends must agree bit-for-bit.
    let n = BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
        .unwrap();
    let base = BigUint::from(0x1234_5678u64);
    let exp = BigUint::from(65537u64);

    let modeled = PhiLibrary::with_config(PhiConfig::default());
    let want = modeled.mod_exp(&base, &exp, &n).unwrap();

    if auto == ResolvedBackend::NativeX86 {
        let config = PhiConfig::builder()
            .backend(Backend::Auto)
            .expect("Auto never fails validation")
            .build();
        let native = PhiLibrary::with_config(config);
        let got = native.mod_exp(&base, &exp, &n).unwrap();
        assert_eq!(got, want, "native and modeled backends disagree");
        println!("cross-check  : native == modeled on 256-bit mod-exp ✓");
    } else {
        println!("cross-check  : skipped (no AVX2 on this host)");
    }
}
