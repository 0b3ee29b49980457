/**
 * @file
 * perfbench_driver: runs one benchmark workload once, cold, in this
 * process and writes what it measured as one JSON document.
 *
 *   perfbench_driver --mode plain|traced --workload NAME --seed N
 *                    --out PATH --tmp DIR [--scale S] [--spans PATH]
 *
 * plain   runs the workload the way a user regenerating a figure does
 *         (SweepRunner for the policy matrices, the intra-cell unit
 *         pool for the tenant mix) with no instrumentation, and
 *         reports host wall time, set-up time, simulation-loop time,
 *         peak RSS and every cell's simulated statistics.
 * traced  runs the same cells serially and drives each layer's public
 *         entry points itself, recording one span per call (kept in
 *         memory, written once at the end as Chrome-trace JSON). It
 *         validates every functional result and reads the public
 *         counters of each layer.
 *
 * perfbench/run.py starts this binary once per repetition (so every
 * repetition starts with an empty graph cache), compares the simulated
 * statistics of all repetitions, and prints the benchmark's metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/core/tenant.h"
#include "src/graph/graph_cache.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/runner/cell_spec.h"
#include "src/runner/json_writer.h"
#include "src/runner/parallel_units.h"
#include "src/runner/sweep_runner.h"
#include "src/serve/result_cache.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_registry.h"

using namespace bauvm;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- workloads

/**
 * One benchmark workload. A matrix runs every (workload x policy) cell
 * of `workloads` on SweepRunner with `workers` threads; a mix runs the
 * `tenants` concurrently on one GPU per policy, with the per-tenant
 * solo anchors as extra units on `cell_threads` threads.
 */
struct BenchWorkload {
    std::string name;
    WorkloadScale scale = WorkloadScale::Small;
    std::vector<std::string> workloads;
    std::vector<TenantSpec> tenants;
    std::vector<Policy> policies;
    std::size_t workers = 1;
    std::size_t cell_threads = 1;
    /** Force the out-of-core (streamed) CSR build for this scale. */
    bool streamed = false;

    bool isMix() const { return !tenants.empty(); }
};

BenchWorkload
benchWorkload(const std::string &name)
{
    BenchWorkload b;
    b.name = name;
    if (name == "fig11-tiny") {
        // The Fig 11 matrix: every irregular workload x every policy
        // on the cross-cell pool.
        b.scale = WorkloadScale::Tiny;
        b.workloads = WorkloadRegistry::instance().enumerate(
            WorkloadKind::Irregular);
        b.policies = allPolicies();
        b.workers = std::clamp<std::size_t>(
            std::thread::hardware_concurrency(), 1, 4);
    } else if (name == "bfs-hyb-large") {
        // One cold streamed graph build, then all six policies on one
        // worker: set-up heavy, no cross-cell parallelism.
        b.scale = WorkloadScale::Large;
        b.workloads = {"BFS-HYB"};
        b.policies = allPolicies();
        b.workers = 1;
        b.streamed = true;
    } else if (name == "mt2-medium") {
        // Two tenants sharing one GPU. ETC is left out: the
        // multi-tenant run rejects it by design (unsupported).
        b.scale = WorkloadScale::Medium;
        b.tenants = {{"BFS-HYB", 0.5, WorkloadScale::Medium},
                     {"PR", 0.5, WorkloadScale::Medium}};
        for (Policy p : allPolicies())
            if (p != Policy::Etc)
                b.policies.push_back(p);
        b.workers = 1;
        b.cell_threads = 3;
    } else {
        std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return b;
}

/** Applies the process-wide graph-build policy of @p b. */
void
configureGraphBuilds(const BenchWorkload &b)
{
    if (!b.streamed)
        return;
    // Stream at this scale, with a scratch budget scaled down with the
    // graph so the build makes several passes, as paper-scale builds do.
    GraphStreamConfig &stream = graphStreamConfig();
    stream.stream_threshold_edges = graphScale(b.scale).edges;
    stream.scratch_bytes = 16ull << 20;
}

SimConfig
cellBaseConfig(const std::string &label, Policy policy,
               std::uint64_t seed)
{
    return applyPolicy(paperConfig(0.5, deriveWorkloadSeed(seed, label)),
                       policy);
}

// ---------------------------------------------------------------- output

/** Deterministic statistics of one simulation, compared across runs. */
void
writeSimStats(JsonWriter &w, const RunResult &r)
{
    w.field("cycles", static_cast<std::uint64_t>(r.cycles));
    w.field("sim_events", r.sim_events);
    w.field("event_order_digest", r.event_order_digest);
    w.field("instructions", r.instructions);
    w.field("batches", r.batches);
    w.field("evictions", r.evictions);
    w.field("pcie_h2d_bytes", r.pcie_h2d_bytes);
    w.field("pcie_d2h_bytes", r.pcie_d2h_bytes);
    w.beginArray("tenant_cycles");
    for (const TenantResult &t : r.tenants)
        w.value(static_cast<std::uint64_t>(t.cycles));
    w.endArray();
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text << '\n';
    if (!out) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
}

// ---------------------------------------------------------------- plain

/** One simulation inside a plain cell (a cell or one of its units). */
struct UnitTiming {
    double wall_s = 0.0; //!< construct + run (+ teardown) of the unit
    double loop_s = 0.0; //!< RunResult::host_wall_s
    std::uint64_t instructions = 0;
};

/** One plain cell as the report needs it. */
struct PlainCell {
    CellOutcome outcome;
    std::vector<UnitTiming> units;
    std::vector<Cycle> solo; //!< mix cells: the solo anchors' cycles
};

/** The policy matrix on SweepRunner, as fig11_speedup runs it. */
std::vector<PlainCell>
runMatrixPlain(const BenchWorkload &b, std::uint64_t seed,
               SweepResult *sweep_out)
{
    SweepSpec spec;
    spec.bench = "perfbench-" + b.name;
    spec.workloads = b.workloads;
    spec.policies = b.policies;
    spec.opt.scale = b.scale;
    spec.opt.seed = seed;
    spec.opt.jobs = b.workers;
    spec.verbose = false;
    SweepRunner runner(spec);
    *sweep_out = runner.run();

    std::vector<PlainCell> cells;
    for (const CellOutcome &o : sweep_out->cells) {
        PlainCell c;
        c.outcome = o;
        // A single-tenant cell is one simulation: everything outside
        // its loop is graph generation, workload build, system
        // construction and teardown.
        c.units.push_back(
            {o.wall_s, o.ok ? o.result.host_wall_s : 0.0,
             o.ok ? o.result.instructions : 0});
        cells.push_back(std::move(c));
    }
    return cells;
}

/**
 * The tenant mix: per policy, the solo anchors and the mix run as
 * independent units on runUnits(), like executeCell() does, but each
 * unit is timed on its own because they overlap in wall time.
 */
std::vector<PlainCell>
runMixPlain(const BenchWorkload &b, std::uint64_t seed)
{
    GraphBuildCache::Scope graph_scope;
    const std::string label = tenantMixLabel(b.tenants);
    const std::size_t n = b.tenants.size();
    std::vector<PlainCell> cells;
    for (Policy policy : b.policies) {
        const SimConfig config = cellBaseConfig(label, policy, seed);
        PlainCell c;
        c.outcome.workload = label;
        c.outcome.policy = policy;
        c.outcome.seed = config.seed;
        c.units.resize(n + 1);
        c.solo.resize(n);
        std::vector<std::string> errors(n + 1);
        RunResult mix;
        const auto t0 = Clock::now();
        runUnits(n + 1, b.cell_threads, [&](std::size_t u) {
            const auto u0 = Clock::now();
            try {
                ScopedAbortCapture capture;
                RunResult r;
                if (u == n) {
                    GpuUvmSystem system(config);
                    r = system.run(b.tenants);
                } else {
                    SimConfig solo = config;
                    solo.seed = deriveTenantSeed(
                        config.seed, static_cast<std::uint32_t>(u));
                    solo.mt = MtConfig{};
                    auto workload = WorkloadRegistry::instance().create(
                        b.tenants[u].workload);
                    GpuUvmSystem system(solo);
                    r = system.run(*workload, b.tenants[u].scale);
                    c.solo[u] = r.cycles;
                }
                c.units[u] = {0.0, r.host_wall_s, r.instructions};
                if (u == n)
                    mix = std::move(r);
            } catch (const std::exception &e) {
                errors[u] = e.what();
            }
            c.units[u].wall_s = secondsSince(u0);
        });
        c.outcome.wall_s = secondsSince(t0);
        c.outcome.ok = true;
        for (const std::string &e : errors) {
            if (!e.empty()) {
                c.outcome.ok = false;
                c.outcome.error = e;
            }
        }
        if (c.outcome.ok) {
            for (std::size_t i = 0; i < n; ++i)
                mix.tenants[i].slowdown =
                    ratio(static_cast<double>(mix.tenants[i].cycles),
                          static_cast<double>(c.solo[i]));
            c.outcome.result = std::move(mix);
        }
        cells.push_back(std::move(c));
    }
    return cells;
}

int
runPlain(const BenchWorkload &b, std::uint64_t seed,
         const std::string &out_path, const std::string &tmp_dir)
{
    SweepResult sweep;
    const auto sweep_start = Clock::now();
    std::vector<PlainCell> cells = b.isMix()
                                       ? runMixPlain(b, seed)
                                       : runMatrixPlain(b, seed, &sweep);
    const double sweep_s = secondsSince(sweep_start);
    const double wall_s = secondsSince(kProcessStart);
    const double cpu_s = cpuSeconds();
    const double rss_mb = peakRssMb();

    // The structured export a user asks for with --json.
    if (b.isMix()) {
        sweep.bench = "perfbench-" + b.name;
        sweep.base_seed = seed;
        sweep.scale = b.scale;
        sweep.ratio = 0.5;
        sweep.jobs = b.workers;
        sweep.elapsed_s = sweep_s;
        for (const PlainCell &c : cells)
            sweep.cells.push_back(c.outcome);
    }
    const std::string export_path =
        tmp_dir + "/sweep-" + std::to_string(getpid()) + ".json";
    const auto export_start = Clock::now();
    const bool exported = sweep.writeJson(export_path);
    const double export_s = secondsSince(export_start);
    std::uintmax_t export_bytes = 0;
    if (exported) {
        export_bytes = std::filesystem::file_size(export_path);
        std::filesystem::remove(export_path);
    }

    JsonWriter w(false);
    w.beginObject();
    w.field("mode", "plain");
    w.field("workload", b.name);
    w.field("seed", seed);
    w.field("scale", scaleName(b.scale));
    w.field("workers", static_cast<std::uint64_t>(b.workers));
    w.field("cell_threads", static_cast<std::uint64_t>(b.cell_threads));
    w.field("wall_s", wall_s);
    w.field("sweep_s", sweep_s);
    w.field("cpu_s", cpu_s);
    w.field("peak_rss_mb", rss_mb);
    w.field("export_ok", exported);
    w.field("export_s", export_s);
    w.field("export_bytes", static_cast<std::uint64_t>(export_bytes));
    w.field("graph_builds", GraphBuildCache::instance().builds());
    w.field("graph_hits", GraphBuildCache::instance().hits());
#ifdef __clang__
    w.field("compiler", "clang " __clang_version__);
#else
    w.field("compiler", "gcc " __VERSION__);
#endif
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.beginArray("cells");
    for (const PlainCell &c : cells) {
        const CellOutcome &o = c.outcome;
        w.beginObject();
        w.field("workload", o.workload);
        w.field("policy", policyName(o.policy));
        w.field("ok", o.ok);
        w.field("error", o.error);
        w.field("wall_s", o.wall_s);
        double busy_s = 0.0, setup_s = 0.0, loop_s = 0.0;
        std::uint64_t instructions = 0;
        for (const UnitTiming &u : c.units) {
            busy_s += u.wall_s;
            setup_s += u.wall_s - u.loop_s;
            loop_s += u.loop_s;
            instructions += u.instructions;
        }
        w.field("busy_s", busy_s);
        w.field("setup_s", setup_s);
        w.field("loop_s", loop_s);
        w.field("instructions", instructions);
        w.beginObject("stats");
        if (o.ok)
            writeSimStats(w, o.result);
        w.beginArray("solo_cycles");
        for (Cycle s : c.solo)
            w.value(static_cast<std::uint64_t>(s));
        w.endArray();
        w.endObject();
        w.beginArray("tenant_slowdown");
        for (const TenantResult &t : o.result.tenants)
            w.value(t.slowdown);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    writeFile(out_path, w.str());
    return 0;
}

// ---------------------------------------------------------------- traced

/** One recorded call: [start, end] seconds since the traced run began. */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int cell = -1;
};

/** In-memory span recorder; spans nest by call order. */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    /** Runs @p fn inside a span; @return the span's duration. */
    double
    span(const std::string &name, const std::function<void()> &fn)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, now(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), cell_});
        stack_.push_back(id);
        try {
            fn();
        } catch (...) {
            close(id);
            throw;
        }
        return close(id);
    }

    /** Subsequent spans belong to cell @p id. */
    void setCell(int id) { cell_ = id; }

    const std::vector<Span> &spans() const { return spans_; }

    double
    duration(int id) const
    {
        return spans_[id].end - spans_[id].start;
    }

  private:
    double now() const { return secondsSince(t0_); }

    double
    close(int id)
    {
        spans_[id].end = now();
        stack_.pop_back();
        return duration(id);
    }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int cell_ = -1;
};

/** Layer counters summed over every traced simulation. */
struct LayerTotals {
    double graph_build_s = 0.0;
    std::uint64_t graph_edges = 0;
    double build_s = 0.0;
    double gen_s = 0.0;
    double validate_s = 0.0;
    double construct_s = 0.0;
    double run_s = 0.0;
    double loop_s = 0.0;

    std::uint64_t instructions = 0;
    std::uint64_t kernels = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t lines = 0;
    std::uint64_t context_switches = 0;

    std::uint64_t translations = 0;
    double page_walks = 0.0;
    std::uint64_t l1_hits = 0, l1_accesses = 0;
    std::uint64_t l2_hits = 0, l2_accesses = 0;

    std::uint64_t batches = 0;
    double batch_pages = 0.0; //!< sum of avg_batch_pages x batches
    std::uint64_t demand_pages = 0;
    std::uint64_t prefetched_pages = 0;
    std::uint64_t evictions = 0;
    std::uint64_t premature = 0;
    std::uint64_t pcie_h2d = 0;
    std::uint64_t pcie_d2h = 0;
    std::uint64_t events = 0;

    void
    addResult(const RunResult &r)
    {
        loop_s += r.host_wall_s;
        instructions += r.instructions;
        kernels += r.kernels;
        context_switches += r.context_switches;
        translations += r.translations;
        // tlb_hit_rate is 1 - walks / translations.
        page_walks += static_cast<double>(std::llround(
            static_cast<double>(r.translations) * (1.0 - r.tlb_hit_rate)));
        batches += r.batches;
        batch_pages += r.avg_batch_pages * static_cast<double>(r.batches);
        demand_pages += r.demand_pages;
        prefetched_pages += r.prefetched_pages;
        evictions += r.evictions;
        premature += r.premature_evictions;
        pcie_h2d += r.pcie_h2d_bytes;
        pcie_d2h += r.pcie_d2h_bytes;
        events += r.sim_events;
    }

    /** Coalescer and cache counters of a single-tenant system (a mix
     *  keeps its per-tenant hierarchies behind the engine). */
    void
    addComponents(GpuUvmSystem &system)
    {
        Gpu &gpu = system.gpu();
        MemoryHierarchyBase &h = system.hierarchy();
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
            mem_ops += gpu.sm(i).coalescer().memoryInstructions();
            lines += gpu.sm(i).coalescer().transactions();
            l1_hits += h.l1Cache(i).hits();
            l1_accesses += h.l1Cache(i).hits() + h.l1Cache(i).misses();
        }
        l2_hits += h.l2Cache().hits();
        l2_accesses += h.l2Cache().hits() + h.l2Cache().misses();
    }
};

/** The traced run of one workload; see file doc. */
class TracedRun
{
  public:
    TracedRun(const BenchWorkload &b, std::uint64_t seed,
              std::string tmp_dir)
        : b_(b), seed_(seed), tmp_dir_(std::move(tmp_dir))
    {
    }

    void
    run()
    {
        GraphBuildCache::Scope graph_scope;
        if (b_.isMix()) {
            const std::string label = tenantMixLabel(b_.tenants);
            for (Policy p : b_.policies) {
                const SimConfig config = cellBaseConfig(label, p, seed_);
                cell(label, p, config, [&] { return mixCell(config); });
            }
        } else {
            for (const std::string &w : b_.workloads)
                for (Policy p : b_.policies) {
                    const SimConfig config = cellBaseConfig(w, p, seed_);
                    cell(w, p, config, [&] { return singleCell(w, config); });
                }
        }
        observerProbe();
        serveProbe();
    }

    void
    writeJson(const std::string &out_path,
              const std::string &spans_path) const
    {
        JsonWriter w(false);
        w.beginObject();
        w.field("mode", "traced");
        w.field("workload", b_.name);
        w.field("seed", seed_);
        w.field("spans_path", spans_path);
        w.beginArray("cells");
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            const CellOutcome &o = outcomes_[i];
            w.beginObject();
            w.field("workload", o.workload);
            w.field("policy", policyName(o.policy));
            w.field("ok", o.ok);
            w.field("error", o.error);
            w.beginObject("stats");
            if (o.ok)
                writeSimStats(w, o.result);
            w.beginArray("solo_cycles");
            for (Cycle c : solo_cycles_[i])
                w.value(static_cast<std::uint64_t>(c));
            w.endArray();
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.beginArray("errors");
        for (const std::string &e : errors_)
            w.value(e);
        w.endArray();

        const LayerTotals &t = totals_;
        const double model_s = t.loop_s - t.gen_s;
        w.beginObject("metrics");
        auto m = [&](const char *name, double v, const char *unit) {
            w.beginObject(name);
            w.field("value", v);
            w.field("unit", unit);
            w.endObject();
        };
        m("graph.build_s", t.graph_build_s, "s");
        m("graph.edges_per_s",
          ratio(static_cast<double>(t.graph_edges), t.graph_build_s),
          "1/s");
        m("workloads.build_s", t.build_s, "s");
        m("workloads.gen_s", t.gen_s, "s");
        m("workloads.validate_s", t.validate_s, "s");
        m("core.construct_s", t.construct_s, "s");
        m("core.loop_s", t.loop_s, "s");
        m("core.run_other_s", t.run_s - t.loop_s, "s");
        m("core.model_s", model_s, "s");
        m("gpu.instructions", static_cast<double>(t.instructions),
          "count");
        m("gpu.kernels", static_cast<double>(t.kernels), "count");
        m("gpu.lines_per_mem_op",
          ratio(static_cast<double>(t.lines),
                static_cast<double>(t.mem_ops)),
          "lines/op");
        m("gpu.context_switches",
          static_cast<double>(t.context_switches), "count");
        m("mem.translations", static_cast<double>(t.translations),
          "count");
        m("mem.tlb_hit_rate",
          1.0 - ratio(t.page_walks, static_cast<double>(t.translations)),
          "ratio");
        m("mem.page_walks", t.page_walks, "count");
        m("mem.l1_hit_rate",
          ratio(static_cast<double>(t.l1_hits),
                static_cast<double>(t.l1_accesses)),
          "ratio");
        m("mem.l2_hit_rate",
          ratio(static_cast<double>(t.l2_hits),
                static_cast<double>(t.l2_accesses)),
          "ratio");
        m("mem.host_ns_per_translation",
          1e9 * ratio(model_s, static_cast<double>(t.translations)),
          "ns");
        m("uvm.batches", static_cast<double>(t.batches), "count");
        m("uvm.avg_batch_pages",
          ratio(t.batch_pages, static_cast<double>(t.batches)), "pages");
        m("uvm.demand_pages", static_cast<double>(t.demand_pages),
          "pages");
        m("uvm.prefetched_pages",
          static_cast<double>(t.prefetched_pages), "pages");
        m("uvm.evictions", static_cast<double>(t.evictions), "count");
        m("uvm.premature_ratio",
          ratio(static_cast<double>(t.premature),
                static_cast<double>(t.evictions)),
          "ratio");
        m("uvm.pcie_h2d_bytes", static_cast<double>(t.pcie_h2d), "bytes");
        m("uvm.pcie_d2h_bytes", static_cast<double>(t.pcie_d2h), "bytes");
        m("sim.events", static_cast<double>(t.events), "count");
        m("sim.host_ns_per_event",
          1e9 * ratio(t.loop_s, static_cast<double>(t.events)), "ns");
        m("serve.store_s", ratio(store_s_, serve_cells_), "s");
        m("serve.lookup_s", ratio(lookup_s_, serve_cells_), "s");
        m("serve.roundtrip_ok", ratio(serve_ok_, serve_cells_), "ratio");
        m("trace.slowdown", trace_slowdown_, "ratio");
        m("check.slowdown", check_slowdown_, "ratio");
        m("span.count", static_cast<double>(tracer_.spans().size()),
          "count");
        m("span.overhead_s",
          static_cast<double>(tracer_.spans().size()) * spanCost(), "s");
        m("span.coverage_min", coverageMin(), "ratio");
        w.endObject();

        w.beginObject("self_s");
        for (const auto &[name, s] : selfTimes())
            w.field(name, s);
        w.endObject();
        w.endObject();
        writeFile(out_path, w.str());
        writeChromeTrace(spans_path);
    }

  private:
    /**
     * Runs @p body as one cell under a root span whose direct children
     * must cover it. A fatal()/panic() or a failed validation fails
     * the cell; the remaining cells still run.
     */
    void
    cell(const std::string &label, Policy policy, const SimConfig &config,
         const std::function<RunResult()> &body)
    {
        CellOutcome o;
        o.workload = label;
        o.policy = policy;
        o.seed = config.seed;
        outcomes_.push_back(std::move(o));
        solo_cycles_.emplace_back();
        configs_.push_back(config);
        const std::string name = label + "/" + policyName(policy);
        tracer_.setCell(next_cell_++);
        tracer_.span(name, [&] {
            try {
                ScopedAbortCapture capture;
                outcomes_.back().result = body();
                outcomes_.back().ok = true;
            } catch (const std::exception &e) {
                outcomes_.back().error = e.what();
                errors_.push_back(name + ": " + e.what());
            }
        });
        tracer_.setCell(-1);
    }

    /**
     * One simulation of @p name under @p config, layer by layer: a
     * build (cold the first time a graph is needed, then repeated
     * warm to separate graph generation from the workload build), a
     * functional replay (op generation without the timing model), the
     * system's construction and run, validation and teardown.
     */
    RunResult
    simulate(const std::string &name, const SimConfig &config,
             WorkloadScale scale)
    {
        auto create = [&] {
            std::unique_ptr<Workload> w;
            tracer_.span("WorkloadRegistry::create", [&] {
                w = WorkloadRegistry::instance().create(name);
            });
            return w;
        };
        GraphBuildCache &graphs = GraphBuildCache::instance();
        std::unique_ptr<Workload> replay = create();
        const std::uint64_t builds = graphs.builds();
        double build_s = tracer_.span("Workload::build", [&] {
            replay->build(scale, config.seed);
        });
        if (graphs.builds() != builds) {
            std::unique_ptr<Workload> warm = create();
            const double warm_s = tracer_.span("Workload::build(warm)", [&] {
                warm->build(scale, config.seed);
            });
            totals_.graph_build_s += build_s - warm_s;
            if (auto *g = dynamic_cast<GraphWorkloadBase *>(replay.get()))
                totals_.graph_edges += g->graph().numEdges();
            build_s = warm_s;
            tracer_.span("~Workload", [&] { warm.reset(); });
        }
        totals_.build_s += build_s;
        totals_.gen_s += tracer_.span("runFunctional", [&] {
            runFunctional(*replay);
        });
        tracer_.span("~Workload", [&] { replay.reset(); });

        std::unique_ptr<Workload> workload = create();
        std::unique_ptr<GpuUvmSystem> system;
        totals_.construct_s += tracer_.span("GpuUvmSystem::GpuUvmSystem",
                                            [&] {
            system = std::make_unique<GpuUvmSystem>(config);
        });
        RunResult r;
        totals_.run_s += tracer_.span("GpuUvmSystem::run", [&] {
            r = system->run(*workload, scale);
        });
        totals_.validate_s += tracer_.span("Workload::validate", [&] {
            workload->validate();
        });
        totals_.addResult(r);
        totals_.addComponents(*system);
        tracer_.span("~GpuUvmSystem", [&] {
            system.reset();
            workload.reset();
        });
        return r;
    }

    RunResult
    singleCell(const std::string &w, const SimConfig &config)
    {
        if (!probe_set_) {
            probe_workload_ = w;
            probe_config_ = config;
            probe_set_ = true;
        }
        return simulate(w, config, b_.scale);
    }

    RunResult
    mixCell(const SimConfig &config)
    {
        const std::size_t n = b_.tenants.size();
        std::vector<Cycle> &solo = solo_cycles_.back();
        const double gen_before = totals_.gen_s;
        for (std::size_t u = 0; u < n; ++u) {
            SimConfig solo_config = config;
            solo_config.seed =
                deriveTenantSeed(config.seed, static_cast<std::uint32_t>(u));
            solo_config.mt = MtConfig{};
            solo.push_back(
                simulate(b_.tenants[u].workload, solo_config, b_.scale)
                    .cycles);
            if (!probe_set_) {
                probe_workload_ = b_.tenants[u].workload;
                probe_config_ = solo_config;
                probe_set_ = true;
            }
        }
        // The mix replays the same tenant builds its anchors replayed.
        totals_.gen_s += totals_.gen_s - gen_before;

        std::unique_ptr<GpuUvmSystem> system;
        totals_.construct_s += tracer_.span("GpuUvmSystem::GpuUvmSystem",
                                            [&] {
            system = std::make_unique<GpuUvmSystem>(config);
        });
        RunResult r;
        totals_.run_s += tracer_.span("GpuUvmSystem::run(tenants)", [&] {
            r = system->run(b_.tenants);
        });
        totals_.validate_s += tracer_.span("Workload::validate", [&] {
            for (const auto &w : system->tenantWorkloads())
                w->validate();
        });
        totals_.addResult(r);
        tracer_.span("~GpuUvmSystem", [&] { system.reset(); });
        for (std::size_t i = 0; i < n; ++i)
            r.tenants[i].slowdown =
                ratio(static_cast<double>(r.tenants[i].cycles),
                      static_cast<double>(solo[i]));
        return r;
    }

    /**
     * Simulation-loop cost of the trace sink and the model auditor on
     * one cell, against the same cell with neither; all three runs
     * must simulate identically.
     */
    void
    observerProbe()
    {
        if (!probe_set_)
            return;
        auto loop = [&](bool trace, bool check, RunResult *out) {
            SimConfig config = probe_config_;
            config.trace.enabled = trace;
            config.check.enabled = check;
            tracer_.span(std::string("probe ") +
                             (trace ? "traced" : check ? "audited" : "plain"),
                         [&] {
                             auto w = WorkloadRegistry::instance().create(
                                 probe_workload_);
                             GpuUvmSystem system(config);
                             *out = system.run(*w, b_.scale);
                         });
            return out->host_wall_s;
        };
        try {
            ScopedAbortCapture capture;
            RunResult plain, traced, audited;
            const double plain_s = loop(false, false, &plain);
            trace_slowdown_ = ratio(loop(true, false, &traced), plain_s);
            check_slowdown_ = ratio(loop(false, true, &audited), plain_s);
            for (const RunResult *r : {&traced, &audited}) {
                if (r->cycles != plain.cycles ||
                    r->event_order_digest != plain.event_order_digest)
                    errors_.push_back("observer probe: " + probe_workload_ +
                                      " simulates differently when "
                                      "traced or audited");
            }
        } catch (const std::exception &e) {
            errors_.push_back(std::string("observer probe: ") + e.what());
        }
    }

    /** Store and reload every cell through the --resume result cache. */
    void
    serveProbe()
    {
        namespace fs = std::filesystem;
        const std::string dir = tmp_dir_ + "/cells-" +
                                std::to_string(getpid());
        try {
            ScopedAbortCapture capture;
            ResultCache cache(dir);
            for (std::size_t i = 0; i < outcomes_.size(); ++i) {
                const CellOutcome &o = outcomes_[i];
                if (!o.ok)
                    continue;
                const std::string key =
                    cellKey(o.workload, b_.scale, configs_[i], gitRev(),
                            b_.tenants);
                const std::string digest = digestHex(key);
                const auto t0 = Clock::now();
                const bool stored = cache.store(digest, key, o);
                const auto t1 = Clock::now();
                CellOutcome back;
                const bool found = cache.lookup(digest, key, &back);
                lookup_s_ += secondsSince(t1);
                store_s_ += std::chrono::duration<double>(t1 - t0).count();
                serve_cells_ += 1.0;
                const RunResult &a = o.result;
                const RunResult &r = back.result;
                bool same = stored && found && a.cycles == r.cycles &&
                            a.instructions == r.instructions &&
                            a.batches == r.batches &&
                            a.evictions == r.evictions &&
                            a.pcie_h2d_bytes == r.pcie_h2d_bytes &&
                            a.pcie_d2h_bytes == r.pcie_d2h_bytes &&
                            a.tenants.size() == r.tenants.size();
                for (std::size_t t = 0; same && t < a.tenants.size(); ++t)
                    same = a.tenants[t].cycles == r.tenants[t].cycles;
                serve_ok_ += same ? 1.0 : 0.0;
                if (!same)
                    errors_.push_back("result cache round trip changed " +
                                      o.workload + "/" +
                                      policyName(o.policy));
            }
        } catch (const std::exception &e) {
            errors_.push_back(std::string("result cache: ") + e.what());
        }
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    /** Host cost of recording one span, measured on a scratch tracer. */
    static double
    spanCost()
    {
        constexpr int kSpans = 20000;
        Tracer scratch;
        const auto t0 = Clock::now();
        for (int i = 0; i < kSpans; ++i)
            scratch.span("calibrate", [] {});
        return secondsSince(t0) / kSpans;
    }

    double
    coverageMin() const
    {
        const std::vector<Span> &spans = tracer_.spans();
        std::vector<double> covered(spans.size(), 0.0);
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].parent >= 0)
                covered[spans[i].parent] += tracer_.duration(
                    static_cast<int>(i));
        double worst = 1.0;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].parent < 0 && spans[i].cell >= 0)
                worst = std::min(worst,
                                 ratio(covered[i],
                                       tracer_.duration(static_cast<int>(i))));
        return worst;
    }

    /** Self time per span name: duration minus its children's. */
    std::vector<std::pair<std::string, double>>
    selfTimes() const
    {
        const std::vector<Span> &spans = tracer_.spans();
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = tracer_.duration(static_cast<int>(i));
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].parent >= 0)
                self[spans[i].parent] -= tracer_.duration(
                    static_cast<int>(i));
        std::vector<std::pair<std::string, double>> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            // Cell roots are named per cell; fold them into one row.
            const std::string name =
                spans[i].parent < 0 && spans[i].cell >= 0 ? "cell"
                                                          : spans[i].name;
            auto it = std::find_if(out.begin(), out.end(), [&](auto &e) {
                return e.first == name;
            });
            if (it == out.end())
                out.emplace_back(name, self[i]);
            else
                it->second += self[i];
        }
        return out;
    }

    void
    writeChromeTrace(const std::string &path) const
    {
        JsonWriter w(false);
        w.beginObject();
        w.beginArray("traceEvents");
        const std::vector<Span> &spans = tracer_.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("ph", "X");
            w.field("ts", s.start * 1e6);
            w.field("dur", (s.end - s.start) * 1e6);
            w.field("pid", static_cast<std::uint64_t>(1));
            w.field("tid", static_cast<std::uint64_t>(s.cell + 1));
            w.beginObject("args");
            w.field("id", static_cast<std::int64_t>(i));
            w.field("parent", static_cast<std::int64_t>(s.parent));
            w.field("cell", static_cast<std::int64_t>(s.cell));
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.field("displayTimeUnit", "ms");
        w.endObject();
        writeFile(path, w.str());
    }

    const BenchWorkload &b_;
    std::uint64_t seed_;
    std::string tmp_dir_;
    Tracer tracer_;
    int next_cell_ = 0;
    LayerTotals totals_;
    std::vector<CellOutcome> outcomes_;
    std::vector<std::vector<Cycle>> solo_cycles_;
    std::vector<SimConfig> configs_;
    std::vector<std::string> errors_;

    bool probe_set_ = false;
    std::string probe_workload_;
    SimConfig probe_config_;
    double trace_slowdown_ = 0.0;
    double check_slowdown_ = 0.0;

    double store_s_ = 0.0;
    double lookup_s_ = 0.0;
    double serve_cells_ = 0.0;
    double serve_ok_ = 0.0;
};

// ---------------------------------------------------------------- main

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --mode plain|traced "
                 "--workload NAME --seed N --out PATH --tmp DIR "
                 "[--scale tiny|small|medium|large|huge] [--spans PATH]\n");
    std::exit(2);
}

WorkloadScale
parseScale(const std::string &s)
{
    if (s == "tiny")
        return WorkloadScale::Tiny;
    if (s == "small")
        return WorkloadScale::Small;
    if (s == "medium")
        return WorkloadScale::Medium;
    if (s == "large")
        return WorkloadScale::Large;
    if (s == "huge")
        return WorkloadScale::Huge;
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode, workload, out, tmp, spans, scale;
    std::uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        if (arg == "--mode")
            mode = val;
        else if (arg == "--workload")
            workload = val;
        else if (arg == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !val.empty();
        } else if (arg == "--out")
            out = val;
        else if (arg == "--tmp")
            tmp = val;
        else if (arg == "--spans")
            spans = val;
        else if (arg == "--scale")
            scale = val;
        else
            usage();
    }
    if ((mode != "plain" && mode != "traced") || workload.empty() ||
        out.empty() || tmp.empty() || !have_seed ||
        (mode == "traced" && spans.empty()))
        usage();

    BenchWorkload b = benchWorkload(workload);
    if (!scale.empty()) {
        b.scale = parseScale(scale);
        for (TenantSpec &t : b.tenants)
            t.scale = b.scale;
    }
    configureGraphBuilds(b);

    if (mode == "plain")
        return runPlain(b, seed, out, tmp);
    TracedRun traced(b, seed, tmp);
    traced.run();
    traced.writeJson(out, spans);
    return 0;
}
