//! Microbenchmarks of the communication substrate: halo extraction and
//! installation, plane migration packing and channel-transport round
//! trips.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use microslip_comm::{mesh, Tag, Transport};
use microslip_lbm::{ChannelConfig, Dims, Side, Slab, SlabSolver};

fn bench_comm(c: &mut Criterion) {
    let cfg = ChannelConfig::paper_scaled(Dims::new(20, 40, 10));
    let mut solver = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 20 });
    solver.prime_periodic();

    let mut g = c.benchmark_group("halo");
    g.throughput(Throughput::Bytes((solver.f_halo_len() * 8) as u64));
    let mut buf = vec![0.0; solver.f_halo_len()];
    g.bench_function("f-halo-out+in", |b| {
        b.iter(|| {
            solver.f_halo_out(Side::Right, &mut buf);
            solver.f_halo_in(Side::Left, &buf);
        })
    });
    g.finish();

    let mut g = c.benchmark_group("migration");
    g.throughput(Throughput::Bytes((4 * solver.migration_plane_len() * 8) as u64));
    g.bench_function("take+give-4-planes", |b| {
        b.iter(|| {
            let data = solver.take_planes(Side::Right, 4);
            solver.give_planes(Side::Right, 4, &data);
        })
    });
    g.finish();

    let mut g = c.benchmark_group("transport");
    g.sample_size(30);
    g.bench_function("ping-pong-320kB", |b| {
        let mut m = mesh(2);
        let mut peer = m.pop().unwrap();
        let mut me = m.pop().unwrap();
        let echo = std::thread::spawn(move || {
            while let Ok(msg) = peer.recv(0, Tag::F_HALO) {
                if msg.is_empty() {
                    break;
                }
                peer.send(0, Tag::F_HALO, msg).unwrap();
            }
        });
        let payload = vec![1.0f64; 40_000];
        b.iter(|| {
            me.send(1, Tag::F_HALO, payload.clone()).unwrap();
            me.recv(1, Tag::F_HALO).unwrap()
        });
        me.send(1, Tag::F_HALO, Vec::new()).unwrap();
        echo.join().unwrap();
    });
    g.finish();
}

criterion_group!(benches, bench_comm);
criterion_main!(benches);
