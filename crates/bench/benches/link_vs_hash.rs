//! The tentpole measurement: hash-map executor vs linked slot-store
//! executor on a large schedule.
//!
//! The workload is the extremal block-diagonal instance with `n = 4096`
//! computers (256 dense 16×16 clusters) compiled by the bounded-triangles
//! algorithm — millions of transfers and local ops. `hash` runs the
//! [`lowband_model::Machine`] reference executor (one or more hash probes
//! per event); `linked` runs the same schedule after [`lowband_model::link`]
//! interned every key into dense slots (zero hashing per event). `link`
//! itself is measured separately — it is a one-off compile-time cost,
//! amortized over every execution of the schedule.
//!
//! Each executor iteration re-loads the input values into a fresh machine,
//! so the comparison is end-to-end: load + run.

use lowband_bench::block_workload;
use lowband_bench::harness::{black_box, Criterion};
use lowband_bench::{criterion_group, criterion_main};
use lowband_core::algorithms::solve_bounded_triangles;
use lowband_matrix::{SparseMatrix, Wrap64};
use lowband_model::link;
use rand::SeedableRng;

fn bench_link_vs_hash(c: &mut Criterion) {
    let inst = block_workload(256, 16); // n = 4096
    let (schedule, _) = solve_bounded_triangles(&inst, 0).expect("compiles");
    lowband_bench::harness::register_budget(lowband_core::budget::entries_for_observed(
        "link_vs_hash block(256,16)",
        &inst,
        lowband_core::Algorithm::BoundedTriangles,
        schedule.rounds(),
        schedule.messages(),
        schedule.capacity(),
    ));
    let linked = link(&schedule).expect("links");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x11A5);
    let a: SparseMatrix<Wrap64> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
    let b: SparseMatrix<Wrap64> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);

    let mut group = c.benchmark_group("link_vs_hash");
    group.sample_size(10);
    group.bench_function("hash", |bench| {
        bench.iter(|| {
            let mut m = inst.load_machine(&a, &b);
            black_box(m.run(&schedule).expect("runs").messages)
        })
    });
    group.bench_function("linked", |bench| {
        bench.iter(|| {
            let mut m = inst.load_linked(&a, &b, &linked);
            black_box(m.run().expect("runs").messages)
        })
    });
    group.bench_function("link", |bench| {
        bench.iter(|| black_box(link(&schedule).expect("links").total_slots()))
    });
    group.finish();
}

criterion_group!(benches, bench_link_vs_hash);
criterion_main!(benches);
