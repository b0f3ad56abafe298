//! E8 wall-clock: intra-operand vs 16-way batched Montgomery.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phi_bench::workload;
use phiopenssl::batch::{BatchMont, BATCH_WIDTH};
use phiopenssl::VMontCtx;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_batch");
    g.throughput(Throughput::Elements(BATCH_WIDTH as u64));
    for bits in [1024u32, 2048] {
        let n = workload::modulus(bits);
        let ctx = VMontCtx::new(&n).unwrap();
        let bm = BatchMont::new(&ctx);
        let kernel = bm.kernel();
        let a: Vec<_> = (0..BATCH_WIDTH as u64)
            .map(|i| &workload::operand(bits, 10 + i) % &n)
            .collect();
        let b: Vec<_> = (0..BATCH_WIDTH as u64)
            .map(|i| &workload::operand(bits, 30 + i) % &n)
            .collect();
        let avs: Vec<_> = a.iter().map(|v| ctx.to_vec_form(v)).collect();
        let bvs: Vec<_> = b.iter().map(|v| ctx.to_vec_form(v)).collect();
        let (ab, bb) = (kernel.to_batch(&a), kernel.to_batch(&b));

        g.bench_with_input(BenchmarkId::new("singles_x16", bits), &bits, |bench, _| {
            bench.iter(|| {
                (0..BATCH_WIDTH)
                    .map(|j| ctx.mont_mul_vec(black_box(&avs[j]), black_box(&bvs[j])))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_with_input(BenchmarkId::new("batch16", bits), &bits, |bench, _| {
            bench.iter(|| kernel.mont_mul_16(black_box(&ab), black_box(&bb)))
        });
    }
    g.finish();
}

criterion_group! { name = benches; config = common::config(); targets = bench }
criterion_main!(benches);
