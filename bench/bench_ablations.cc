/**
 * @file
 * Ablations beyond the paper's figures (DESIGN.md §6): branch
 * folding, write-validation, stream-buffer depth, and the §5.9
 * double-word FP load/store extension. Every suite evaluation is one
 * slice of a single grid, so the whole ablation battery runs in one
 * sweep and each trace is synthesized once.
 */

#include "bench_common.hh"

int
main()
{
    using namespace aurora;
    using namespace aurora::core;

    bench::banner("design ablations");

    const auto int_suite = trace::integerSuite();
    const auto fp_suite = trace::floatSuite();
    auto dword_suite = fp_suite;
    for (auto &p : dword_suite)
        p.double_word_mem = true;

    bench::Grid grid;
    const auto base = grid.add(baselineModel(), int_suite);

    auto nf = baselineModel();
    nf.ifu.branch_folding = false;
    const auto no_fold = grid.add(nf, int_suite);

    auto nv = baselineModel();
    nv.write_cache.validate_writes = false;
    const auto no_validate = grid.add(nv, int_suite);

    const unsigned depths[] = {1, 2, 4, 8};
    std::vector<bench::Grid::Handle> depth;
    for (unsigned d : depths) {
        auto m = baselineModel();
        m.prefetch.depth = d;
        depth.push_back(grid.add(m, int_suite));
    }

    const unsigned alu_lats[] = {2, 3};
    std::vector<bench::Grid::Handle> alu;
    for (unsigned lat : alu_lats) {
        auto m = baselineModel();
        m.alu_latency = lat;
        alu.push_back(grid.add(m, int_suite));
    }

    auto bc = baselineModel();
    bc.biu.model_collisions = true;
    const auto collisions = grid.add(bc, int_suite);

    auto vc_only = smallModel().withPrefetch(false);
    vc_only.lsu.victim_lines = 4;
    auto both = smallModel();
    both.lsu.victim_lines = 4;
    const auto small = grid.add(smallModel(), int_suite);
    const auto victim = grid.add(vc_only, int_suite);
    const auto victim_sb = grid.add(both, int_suite);

    auto precise_machine = baselineModel();
    precise_machine.fpu.precise_exceptions = true;
    const auto fp_fast = grid.add(baselineModel(), fp_suite);
    const auto fp_precise = grid.add(precise_machine, fp_suite);
    const auto fp_dword = grid.add(baselineModel(), dword_suite);

    const auto &suites = grid.run();

    const auto cpi = [&](bench::Grid::Handle h) {
        return suites[h].avgCpi();
    };
    const auto delta = [&](bench::Grid::Handle h,
                           bench::Grid::Handle ref) {
        return 100.0 * (cpi(h) - cpi(ref)) / cpi(ref);
    };

    Table t({"ablation", "CPI avg", "delta %"});
    t.row().cell("baseline (branch folding on)").cell(cpi(base), 3)
        .cell("-");
    t.row()
        .cell("branch folding removed (Fig 3 NEXT field)")
        .cell(cpi(no_fold), 3)
        .cell(delta(no_fold, base), 1);
    t.row()
        .cell("write validation micro-TLB disabled")
        .cell(cpi(no_validate), 3)
        .cell(delta(no_validate, base), 1);
    for (std::size_t i = 0; i < std::size(depths); ++i)
        t.row()
            .cell("stream buffer depth " + std::to_string(depths[i]))
            .cell(cpi(depth[i]), 3)
            .cell(delta(depth[i], base), 1);
    // §2.1: short pipelines with forwarding vs a deeper ALU pipeline
    // whose results take an extra cycle to reach dependents.
    for (std::size_t i = 0; i < std::size(alu_lats); ++i)
        t.row()
            .cell("ALU result latency " + std::to_string(alu_lats[i]) +
                  " (deep pipeline, no full forwarding)")
            .cell(cpi(alu[i]), 3)
            .cell(delta(alu[i], base), 1);
    // §2: the collision-based split-transaction bus protocol,
    // modelled explicitly instead of folded into the average latency.
    t.row()
        .cell("explicit BIU collision modelling")
        .cell(cpi(collisions), 3)
        .cell(delta(collisions, base), 1);
    // Jouppi's alternative: a victim cache instead of (and next to)
    // the stream buffers, on the conflict-prone small model.
    t.row()
        .cell("small: 4-line victim cache, no stream buffers")
        .cell(cpi(victim), 3)
        .cell(delta(victim, small), 1);
    t.row()
        .cell("small: victim cache + stream buffers")
        .cell(cpi(victim_sb), 3)
        .cell(delta(victim_sb, small), 1);
    // §3.1 precise exception mode.
    t.row()
        .cell("FP imprecise (fast) mode, SPECfp")
        .cell(cpi(fp_fast), 3)
        .cell("-");
    t.row()
        .cell("FP precise exception mode (S3.1)")
        .cell(cpi(fp_precise), 3)
        .cell(delta(fp_precise, fp_fast), 1);
    t.row()
        .cell("FP loads as paired 32-bit halves (base ISA)")
        .cell(cpi(fp_fast), 3)
        .cell("-");
    t.row()
        .cell("double-word FP loads/stores (S5.9 extension)")
        .cell(cpi(fp_dword), 3)
        .cell(delta(fp_dword, fp_fast), 1);

    t.print(std::cout, "Ablation results");
    std::cout << "(expected: removing folding hurts; double-word FP "
                 "memory helps, as S5.9 predicts)\n";
    grid.footer();
    return 0;
}
