/**
 * @file
 * Measurement harness behind perfbench/run.py.
 *
 * One process runs one workload.  It generates the workload's suite
 * traces (the set-up phase, repeated kSetupReps times), then cuts the
 * workload into short timed units — calls into the simulator's public
 * layer functions — and runs whole passes over those units until
 * --seconds have elapsed.  Every unit is bracketed by a fixed host-speed
 * probe (see Probe), so run.py can rescale each unit's wall time to a
 * reference host speed.  With --trace 1 half of the time goes to a
 * traced phase that runs each unit as its layer calls, one span per
 * call, written through obs::TraceWriter to --trace-out.
 *
 * The harness does no arithmetic on times beyond measuring them: it
 * writes every raw sample as JSON to --out and run.py derives the
 * metrics.  It does check correctness: every operation must succeed,
 * the model's invariants must hold, and every repeat of a unit (and its
 * traced decomposition) must reproduce the first run's counters exactly.
 * Any failure is listed under "errors" and makes the exit code 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/obs/trace_writer.hh"
#include "zbp/sample/sample_runner.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/sim/cmp/cmp_model.hh"
#include "zbp/sim/cmp/cmp_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/sim/gang_runner.hh"
#include "zbp/sim/simulator.hh"
#include "zbp/trace/trace_index.hh"
#include "zbp/workload/suites.hh"

extern char **environ;

namespace
{

using namespace zbp;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- host-speed probe -------------------------------------------------

// Probe kernel sizes.  Each kernel takes about 3 ms on the reference
// host; run.py's P_REF holds the reference times, so changing a size
// here means measuring P_REF again.
constexpr std::size_t kBranchyBytes = 128 * 1024;
constexpr std::uint64_t kBranchyIters = 150'000;
constexpr std::uint64_t kIndirectIters = 150'000;
constexpr std::size_t kTableBytes = 1024 * 1024;
constexpr std::uint64_t kTableIters = 150'000;
static_assert((kBranchyBytes / 8 & (kBranchyBytes / 8 - 1)) == 0,
              "the branchy kernel masks its index: power-of-two table");

std::uint64_t
xorshift(std::uint64_t x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

using ProbeFn = std::uint64_t (*)(std::uint64_t, std::uint64_t);

template <int N>
std::uint64_t
probeCallee(std::uint64_t x, std::uint64_t y)
{
    return (x * (2 * N + 1)) ^ (y >> (N % 7));
}

template <int... I>
constexpr std::array<ProbeFn, sizeof...(I)>
probeCallees(std::integer_sequence<int, I...>)
{
    return {probeCallee<I>...};
}

/**
 * A fixed amount of host work shaped like the simulator's, whose
 * duration tracks how fast the host runs such code right now.  Three
 * kernels, timed separately:
 *
 *  - branchy: data-dependent, unpredictable branches over a small table
 *    (the simulator's outcome classification and predictor updates);
 *  - indirect: calls through a 64-entry function-pointer table picked
 *    at random (its virtual dispatch and event handling);
 *  - table: an 8-way set-associative tag search with move-to-front LRU
 *    over a 1 MB table, driven by an address stream with sequential
 *    runs (its BTB, cache and directory lookups).
 *
 * None of it calls simulator code, so optimising the simulator cannot
 * move the probe.  Each measurement first sweeps both tables untimed,
 * so what the simulator left in the caches cannot change its time.
 */
class Probe
{
  public:
    Probe() : small(kBranchyBytes / 8, 1), table(kTableBytes / 8, 1) {}

    /** Seconds taken by each kernel: branchy, indirect, table. */
    std::array<double, 3>
    measure()
    {
        for (auto &e : small)
            e += 1;
        for (auto &e : table)
            e += 1;
        std::uint64_t x = state;
        const auto t0 = Clock::now();
        x = branchy(x);
        const auto t1 = Clock::now();
        x = indirect(x);
        const auto t2 = Clock::now();
        x = search(x);
        const auto t3 = Clock::now();
        state = x | 1; // keeps the work observable
        return {secondsBetween(t0, t1), secondsBetween(t1, t2),
                secondsBetween(t2, t3)};
    }

  private:
    std::uint64_t
    branchy(std::uint64_t x)
    {
        const std::uint64_t mask = small.size() - 1;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        for (std::uint64_t i = 0; i < kBranchyIters; ++i) {
            x = xorshift(x);
            std::uint64_t &e = small[x & mask];
            const std::uint64_t v = e;
            if (v & 1)
                a += v;
            else
                b ^= v;
            if (v & 2)
                a ^= b;
            else
                b += a;
            if (v & 12)
                e = v + a;
        }
        return x ^ a ^ b;
    }

    std::uint64_t
    indirect(std::uint64_t x) const
    {
        static constexpr auto callees =
                probeCallees(std::make_integer_sequence<int, 64>{});
        std::uint64_t y = 1;
        for (std::uint64_t i = 0; i < kIndirectIters; ++i) {
            x = xorshift(x);
            y = callees[x & 63](y, x);
        }
        return x ^ y;
    }

    std::uint64_t
    search(std::uint64_t x)
    {
        constexpr int kWays = 8;
        const std::uint64_t sets = table.size() / kWays;
        std::uint64_t hits = 0;
        std::uint64_t addr = x;
        for (std::uint64_t i = 0; i < kTableIters; ++i) {
            x = xorshift(x);
            if ((x & 7) == 0)
                addr = x; // a taken branch: jump somewhere new
            else
                addr += 4 + (x >> 60);
            const std::uint64_t tag = (addr >> 10) | 1;
            std::uint64_t *row = &table[((addr >> 2) % sets) * kWays];
            int w = 0;
            while (w < kWays && row[w] != tag)
                ++w;
            hits += w < kWays;
            const std::uint64_t front = w < kWays ? row[w] : tag;
            for (int k = std::min(w, kWays - 1); k > 0; --k)
                row[k] = row[k - 1];
            row[0] = front;
        }
        return x ^ hits;
    }

    std::vector<std::uint64_t> small;
    std::vector<std::uint64_t> table;
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
};

// ---- spans ------------------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * The traced phase's span sink: one obs::TraceWriter lane on its
 * wall-clock track.  Only the main thread records spans.  Each span
 * carries its own id and its parent's (the innermost span open when it
 * started), so run.py can take self times without rebuilding the
 * nesting from timestamps.
 */
struct Spans
{
    explicit Spans(const std::string &path)
        : tw(path),
          lane(tw.newLane(obs::TraceWriter::kPidRunner, "perfbench"))
    {}

    obs::TraceWriter tw;
    std::uint32_t lane;
    std::vector<std::uint64_t> open; ///< ids of the open spans
    std::uint64_t nextId = 1;
};

/**
 * RAII span around one call into a layer.  A null sink makes it a
 * no-op, so untraced and traced code share one path.
 */
class Span
{
  public:
    Span(Spans *s, const char *category, std::string name)
        : sp(s), cat(category), name(std::move(name))
    {
        if (sp == nullptr)
            return;
        id = sp->nextId++;
        args.emplace_back("id", obs::jsonNum(id));
        args.emplace_back("parent", sp->open.empty()
                                            ? std::string("0")
                                            : obs::jsonNum(sp->open.back()));
        sp->open.push_back(id);
        ts = sp->tw.nowUs();
    }

    ~Span()
    {
        if (sp == nullptr)
            return;
        const double dur = sp->tw.nowUs() - ts;
        sp->open.pop_back();
        sp->tw.span(obs::TraceWriter::kPidRunner, sp->lane, cat, name, ts,
                    dur, args);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    arg(const char *k, std::uint64_t v)
    {
        if (sp != nullptr)
            args.emplace_back(k, obs::jsonNum(v));
    }

    void
    arg(const char *k, double v)
    {
        if (sp != nullptr)
            args.emplace_back(k, num(v));
    }

  private:
    Spans *sp;
    const char *cat;
    std::string name;
    std::uint64_t id = 0;
    double ts = 0.0;
    obs::TraceArgs args;
};

// ---- counters and digests ---------------------------------------------

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
        add(s.size());
    }

    std::uint64_t value() const { return h; }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** The SimResult counters the digests cover, in a fixed order. */
constexpr std::uint64_t cpu::SimResult::*kCounters[] = {
        &cpu::SimResult::cycles,
        &cpu::SimResult::instructions,
        &cpu::SimResult::branches,
        &cpu::SimResult::takenBranches,
        &cpu::SimResult::correct,
        &cpu::SimResult::mispredictDir,
        &cpu::SimResult::mispredictTarget,
        &cpu::SimResult::surpriseCompulsory,
        &cpu::SimResult::surpriseLatency,
        &cpu::SimResult::surpriseCapacity,
        &cpu::SimResult::surpriseBenign,
        &cpu::SimResult::phantoms,
        &cpu::SimResult::icacheMisses,
        &cpu::SimResult::dcacheMisses,
        &cpu::SimResult::dataAccesses,
        &cpu::SimResult::btb1MissReports,
        &cpu::SimResult::btb2RowReads,
        &cpu::SimResult::btb2Transfers,
        &cpu::SimResult::btb2FullSearches,
        &cpu::SimResult::btb2PartialSearches,
        &cpu::SimResult::predictionsMade,
        &cpu::SimResult::resolves,
};

void
digestResult(Digest &d, const cpu::SimResult &r)
{
    for (const auto field : kCounters)
        d.add(r.*field);
}

std::uint64_t
traceDigest(const trace::Trace &t)
{
    Digest d;
    d.add(t.name());
    for (const trace::Instruction &i : t) {
        d.add(i.ia);
        d.add(i.target);
        d.add(i.dataAddr);
        d.add((std::uint64_t{i.length} << 16) |
              (std::uint64_t(static_cast<std::uint8_t>(i.kind)) << 8) |
              std::uint64_t{i.taken});
    }
    return d.value();
}

/** Model event counts summed over a pass (host time should follow). */
struct Counts
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t btb1MissReports = 0;
    std::uint64_t btb2RowReads = 0;
    std::uint64_t btb2Transfers = 0;
    std::uint64_t btb2FullSearches = 0;
    std::uint64_t btb2PartialSearches = 0;
    std::uint64_t icacheMisses = 0;
    // CMP sharing.
    std::uint64_t arbGrants = 0;
    std::uint64_t arbConflicts = 0;
    std::uint64_t arbWaitCycles = 0;
    std::uint64_t l2iHits = 0;
    std::uint64_t l2iMisses = 0;

    void
    add(const cpu::SimResult &r)
    {
        instructions += r.instructions;
        cycles += r.cycles;
        btb1MissReports += r.btb1MissReports;
        btb2RowReads += r.btb2RowReads;
        btb2Transfers += r.btb2Transfers;
        btb2FullSearches += r.btb2FullSearches;
        btb2PartialSearches += r.btb2PartialSearches;
        icacheMisses += r.icacheMisses;
    }

    void
    merge(const Counts &o)
    {
        instructions += o.instructions;
        cycles += o.cycles;
        btb1MissReports += o.btb1MissReports;
        btb2RowReads += o.btb2RowReads;
        btb2Transfers += o.btb2Transfers;
        btb2FullSearches += o.btb2FullSearches;
        btb2PartialSearches += o.btb2PartialSearches;
        icacheMisses += o.icacheMisses;
        arbGrants += o.arbGrants;
        arbConflicts += o.arbConflicts;
        arbWaitCycles += o.arbWaitCycles;
        l2iHits += o.l2iHits;
        l2iMisses += o.l2iMisses;
    }

    void
    add(const sim::CmpResult &r)
    {
        for (const auto &c : r.core)
            add(c);
        arbGrants += r.arbGrants;
        arbConflicts += r.arbConflicts;
        arbWaitCycles += r.arbWaitCycles;
        l2iHits += r.l2iHits;
        l2iMisses += r.l2iMisses;
    }

    std::string
    json() const
    {
        std::ostringstream o;
        o << "{\"instructions\":" << instructions << ",\"cycles\":" << cycles
          << ",\"btb1MissReports\":" << btb1MissReports
          << ",\"btb2RowReads\":" << btb2RowReads
          << ",\"btb2Transfers\":" << btb2Transfers
          << ",\"btb2FullSearches\":" << btb2FullSearches
          << ",\"btb2PartialSearches\":" << btb2PartialSearches
          << ",\"icacheMisses\":" << icacheMisses
          << ",\"arbGrants\":" << arbGrants
          << ",\"arbConflicts\":" << arbConflicts
          << ",\"arbWaitCycles\":" << arbWaitCycles
          << ",\"l2iHits\":" << l2iHits << ",\"l2iMisses\":" << l2iMisses
          << "}";
        return o.str();
    }
};

/** What one run of a unit produced. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    Digest digest;
    Counts counts;

    void
    fail(const std::string &what)
    {
        ++failed;
        errors.push_back(what);
    }

    /** Checks a finished single-core result against its trace. */
    void
    checkResult(const std::string &what, const cpu::SimResult &r,
                std::size_t trace_len)
    {
        ++attempted;
        const std::string inv = cpu::simInvariantError(r);
        if (!inv.empty())
            fail(what + ": invariant violated: " + inv);
        else if (r.instructions != trace_len)
            fail(what + ": simulated " + std::to_string(r.instructions) +
                 " instructions of a " + std::to_string(trace_len) +
                 "-instruction trace");
        digestResult(digest, r);
        counts.add(r);
    }
};

// ---- workloads -----------------------------------------------------------

/** SplitMix64 finaliser: spreads a small seed over every bit. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The shipped suite @p name with @p seed mixed into both of its seeds;
 * seed 0 leaves the suite exactly as shipped. */
workload::SuiteSpec
seededSuite(const std::string &name, std::uint64_t seed)
{
    workload::SuiteSpec s = workload::findSuite(name);
    if (seed != 0) {
        s.build.seed ^= mixSeed(seed);
        s.gen.seed ^= mixSeed(seed ^ 0x5bd1e995ull);
    }
    return s;
}

/** One workload: its traces plus a set of timed units over them. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Suites this workload generates in set-up, and their length scale. */
    virtual std::vector<std::string> suites() const = 0;
    virtual double scale() const = 0;

    /** Called once the traces exist. */
    virtual void prepare() {}

    virtual std::size_t units() const = 0;
    virtual std::string unitName(std::size_t u) const = 0;
    /** Simulated instructions one run of unit @p u accounts for. */
    virtual std::uint64_t unitInsts(std::size_t u) const = 0;

    /** The timed unit: end-to-end calls, no spans. */
    virtual Outcome run(std::size_t u) = 0;

    /** The same work as its layer calls, one span each.  Its digest
     * must equal run()'s. */
    virtual Outcome traced(std::size_t u, Spans &sp) = 0;

    /** Worker threads the workload's units use. */
    virtual unsigned workers() const { return 1; }

    std::vector<trace::TraceHandle> traces;
};

// fig2-serial: the 13 Table 4 traces x the 3 Table 3 configs, one gang
// per trace on one thread.

class Fig2Serial : public Workload
{
  public:
    Fig2Serial()
    {
        cfgs.push_back({"no-btb2", sim::configNoBtb2()});
        cfgs.push_back({"btb2", sim::configBtb2()});
        cfgs.push_back({"large-btb1", sim::configLargeBtb1()});
        for (auto &c : cfgs)
            c.cfg.collectStatsText = false;
    }

    std::vector<std::string>
    suites() const override
    {
        std::vector<std::string> v;
        for (const auto &s : workload::paperSuites())
            v.push_back(s.name);
        return v;
    }

    double scale() const override { return 0.125; }
    std::size_t units() const override { return traces.size(); }
    std::string unitName(std::size_t u) const override
    {
        return traces[u]->name();
    }
    std::uint64_t unitInsts(std::size_t u) const override
    {
        return cfgs.size() * traces[u]->size();
    }

    Outcome
    run(std::size_t u) override
    {
        Outcome o;
        gang(u, o);
        return o;
    }

    Outcome
    traced(std::size_t u, Spans &sp) override
    {
        const trace::Trace &t = *traces[u];
        Outcome serial;
        // The gang builds these sidecars inside its run; they are built
        // here only to time them.  sim::runOne runs without them, as the
        // job-per-config path does.
        {
            Span s(&sp, "trace", "index");
            s.arg("insts", static_cast<std::uint64_t>(t.size()));
            const trace::TraceIndex idx(t);
        }
        {
            // One map per distinct D-cache geometry, as the gang builds.
            std::vector<cache::ICacheParams> geoms;
            for (const auto &c : cfgs) {
                const bool seen = std::any_of(
                        geoms.begin(), geoms.end(), [&](const auto &g) {
                            return cache::sameDataMissGeometry(g,
                                                               c.cfg.dcache);
                        });
                if (c.cfg.dcacheEnabled && !seen)
                    geoms.push_back(c.cfg.dcache);
            }
            for (const auto &g : geoms) {
                Span s(&sp, "cache", "dmiss");
                s.arg("insts", static_cast<std::uint64_t>(t.size()));
                const auto map = cache::computeDataMissMap(t, g);
            }
        }
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            Span s(&sp, "cpu", "cfg" + std::to_string(c + 1));
            cpu::SimResult r;
            try {
                r = sim::runOne(cfgs[c].cfg, t);
            } catch (const std::exception &e) {
                ++serial.attempted;
                serial.fail(cfgs[c].name + "/" + t.name() + ": " + e.what());
                continue;
            }
            s.arg("insts", static_cast<std::uint64_t>(r.instructions));
            s.arg("cycles", static_cast<std::uint64_t>(r.cycles));
            serial.checkResult(cfgs[c].name + "/" + t.name() + " (runOne)",
                               r, t.size());
        }
        Outcome o;
        {
            Span s(&sp, "sim", "gang");
            s.arg("insts", static_cast<std::uint64_t>(unitInsts(u)));
            s.arg("replica", std::uint64_t{1});
            gang(u, o);
        }
        // Fused must equal unfused, counter for counter.
        if (serial.failed == 0 && o.failed == 0 &&
            serial.digest.value() != o.digest.value())
            o.fail(t.name() + ": sim::runOne counters differ from the "
                              "gang's (fused != unfused)");
        o.errors.insert(o.errors.end(), serial.errors.begin(),
                        serial.errors.end());
        o.attempted += serial.attempted;
        o.failed += serial.failed;
        return o;
    }

  private:
    void
    gang(std::size_t u, Outcome &o)
    {
        sim::GangRunner gr(cfgs, 1);
        gr.setSinkPath("");
        gr.setResumePath("");
        const auto res = gr.run({traces[u]});
        const trace::Trace &t = *traces[u];
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const runner::SimJobResult &jr = res[c][0];
            const std::string what = cfgs[c].name + "/" + t.name();
            if (!jr.ok) {
                ++o.attempted;
                o.fail(what + ": " + jr.error);
                continue;
            }
            o.checkResult(what, jr.result, t.size());
        }
    }

    std::vector<sim::GangConfig> cfgs;
};

// sampled-fast: SampleRunner in fast mode over long traces, one unit per
// trace; functional warm-up and snapshot fan-out dominate.

class SampledFast : public Workload
{
  public:
    SampledFast() { cfg.collectStatsText = false; }

    std::vector<std::string>
    suites() const override
    {
        return {"cb84", "cicsdb2", "tpf", "wasdb_cbw2", "trade6"};
    }

    double scale() const override { return 0.5; }
    unsigned workers() const override { return 2; }

    void
    prepare() override
    {
        // Trace-relative geometry, as bench/sampled_sim uses: 32
        // intervals, 5% detailed re-warm and 10% measured per interval.
        for (const auto &t : traces) {
            sample::SampleParams p;
            p.mode = sample::SampleMode::kFast;
            p.intervalInsts = std::max<std::uint64_t>(t->size() / 32, 1000);
            p.warmupInsts = p.intervalInsts / 20;
            p.measureInsts = p.intervalInsts / 10;
            prm.push_back(p);
        }
    }

    std::size_t units() const override { return traces.size(); }
    std::string unitName(std::size_t u) const override
    {
        return traces[u]->name();
    }
    std::uint64_t unitInsts(std::size_t u) const override
    {
        return traces[u]->size();
    }

    Outcome
    run(std::size_t u) override
    {
        sample::SampleReport rep;
        return sampled(u, rep);
    }

    /**
     * The sampled run itself, with SampleRunner's own timers (warm-up
     * pass, summed interval busy time, run wall) as span arguments.
     * SampleRunner does not split its time between saving and restoring
     * snapshots, so the unit then fans the snapshots out again through
     * sample::runWarmupFanout and restores each into a fresh model and
     * saves it back, one span per call.  (The saved image is not
     * compared with the fan-out's: hash-container state is written in
     * iteration order, which a restore does not preserve.)
     */
    Outcome
    traced(std::size_t u, Spans &sp) override
    {
        const trace::Trace &t = *traces[u];
        const auto plan = sample::planIntervals(t.size(), prm[u]);
        Outcome o;
        {
            Span s(&sp, "sample", "run");
            sample::SampleReport rep;
            o = sampled(u, rep);
            // Each interval's detailed job starts at its restore point.
            std::uint64_t detailed = 0;
            for (const auto &iv : plan)
                detailed += iv.measureEnd - iv.snapshotAt;
            s.arg("replica", std::uint64_t{1});
            s.arg("warmup_insts",
                  static_cast<std::uint64_t>(rep.warmupInstructions));
            s.arg("warmup_s", rep.warmupSeconds);
            s.arg("detailed_insts", detailed);
            s.arg("detailed_s", rep.detailedSeconds);
            s.arg("wall_s", rep.wallSeconds);
            s.arg("records", static_cast<std::uint64_t>(rep.intervals));
        }
        if (o.failed != 0)
            return o;

        std::unique_ptr<trace::TraceIndex> idx;
        {
            Span s(&sp, "trace", "index");
            s.arg("insts", static_cast<std::uint64_t>(t.size()));
            idx = std::make_unique<trace::TraceIndex>(t);
        }
        sample::FanoutResult fan;
        {
            Span s(&sp, "sample", "fanout");
            cpu::CoreModel warm(cfg);
            warm.setTraceIndex(idx.get());
            fan = sample::runWarmupFanout(warm, t, plan,
                                          sample::SampleMode::kFast);
            s.arg("insts", static_cast<std::uint64_t>(fan.instructions));
        }
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].snapshotAt == 0)
                continue; // interval 0 starts from beginRun
            std::unique_ptr<cpu::CoreModel> m;
            {
                Span s(&sp, "cpu", "begin");
                m = std::make_unique<cpu::CoreModel>(cfg);
                m->setTraceIndex(idx.get());
                m->beginRun(t);
            }
            {
                Span s(&sp, "ckpt", "restore");
                ckpt::Reader r = fan.snapshots[i].reader();
                m->restoreState(r);
                r.finish();
            }
            Span s(&sp, "ckpt", "save");
            ckpt::Writer w;
            m->saveState(w);
            w.finish();
            s.arg("bytes", static_cast<std::uint64_t>(
                                   ckpt::SnapshotBuffer::capture(w)
                                           .sizeBytes()));
        }
        return o;
    }

  private:
    /** One sampled run of trace @p u, checked; @p rep gets its report. */
    Outcome
    sampled(std::size_t u, sample::SampleReport &rep)
    {
        const trace::Trace &t = *traces[u];
        const auto plan = sample::planIntervals(t.size(), prm[u]);
        Outcome o;
        o.attempted = plan.size();
        sample::SampleRunner sr(prm[u], workers());
        sr.setSinkPath("");
        sr.setResumePath("");
        try {
            rep = sr.run("btb2", cfg, t);
        } catch (const std::exception &e) {
            o.fail(t.name() + ": sampled run failed: " + e.what());
            o.failed = plan.size();
            return o;
        }
        if (rep.intervals != plan.size()) {
            o.fail(t.name() + ": " + std::to_string(rep.intervals) + " of " +
                   std::to_string(plan.size()) + " intervals ran");
            return o;
        }
        // A fast-mode stitch covers the measured windows only; each
        // window may overshoot its end by under one decode group.
        std::uint64_t windows = 0;
        for (const auto &iv : plan)
            windows += iv.measureEnd - iv.measureBegin;
        const std::uint64_t slack = plan.size() * 2 * cfg.cpu.decodeWidth;
        const cpu::SimResult &r = rep.stitched;
        if (r.instructions + slack < windows ||
            r.instructions > windows + slack)
            o.fail(t.name() + ": stitched " +
                   std::to_string(r.instructions) + " instructions for " +
                   std::to_string(windows) + " measured");
        digestResult(o.digest, r);
        o.counts.add(r);
        return o;
    }

    core::MachineParams cfg = sim::configBtb2();
    std::vector<sample::SampleParams> prm;
};

// cmp-shared: 4 cores, 4 BTB2 banks and the shared L2I over two
// homogeneous and four heterogeneous mixes, one CmpRunner job per unit.

class CmpShared : public Workload
{
  public:
    CmpShared()
    {
        cfg = sim::configBtb2();
        cfg.collectStatsText = false;
        cfg.cmp.cores = 4;
        cfg.cmp.btb2Banks = 4;
        cfg.cmp.sharedL2i = true;
    }

    std::vector<std::string>
    suites() const override
    {
        std::vector<std::string> v;
        for (const auto &s : workload::paperSuites())
            v.push_back(s.name);
        return v;
    }

    double scale() const override { return 0.0625; }

    void
    prepare() override
    {
        // Two homogeneous mixes (every core runs one suite: the cores
        // prefetch each other's footprint) and four heterogeneous ones
        // (distinct suites: disjoint footprints fight for the BTB2) that
        // between them cover all 13 suites, so no single suite's seed
        // sets the workload's cost.
        const unsigned n = cfg.cmp.cores;
        mixes.clear();
        for (const char *name : {"cicsdb2", "tpf"}) {
            const auto it = std::find_if(
                    traces.begin(), traces.end(),
                    [&](const auto &t) { return t->name() == name; });
            mixes.push_back({std::string("homog-") + name,
                             std::vector<trace::TraceHandle>(n, *it)});
        }
        for (unsigned k = 0; k < 4; ++k) {
            std::vector<trace::TraceHandle> mix;
            for (unsigned i = 0; i < n; ++i)
                mix.push_back(traces[(k * n + i) % traces.size()]);
            mixes.push_back({"hetero-" + std::string(1, char('a' + k)),
                             std::move(mix)});
        }
    }

    std::size_t units() const override { return mixes.size(); }
    std::string unitName(std::size_t u) const override
    {
        return mixes[u].first;
    }
    std::uint64_t
    unitInsts(std::size_t u) const override
    {
        std::uint64_t n = 0;
        for (const auto &t : mixes[u].second)
            n += t->size();
        return n;
    }

    Outcome
    run(std::size_t u) override
    {
        sim::CmpJob job;
        job.name = "cmp-" + mixes[u].first;
        job.cfg = cfg;
        job.traces = mixes[u].second;
        sim::CmpRunner cr(1);
        cr.setSinkPath("");
        cr.setResumePath("");
        const auto res = cr.run({job});
        Outcome o;
        if (!res[0].ok) {
            ++o.attempted;
            o.fail(job.name + ": " + res[0].error);
            return o;
        }
        check(o, u, res[0].result);
        return o;
    }

    Outcome
    traced(std::size_t u, Spans &sp) override
    {
        const auto &ts = mixes[u].second;
        // Sidecars deduplicated per distinct trace, as CmpRunner does.
        std::vector<const trace::Trace *> distinct;
        for (const auto &t : ts)
            if (std::find(distinct.begin(), distinct.end(), t.get()) ==
                distinct.end())
                distinct.push_back(t.get());
        std::vector<std::unique_ptr<trace::TraceIndex>> idx;
        std::vector<std::vector<std::uint8_t>> dmaps;
        for (const trace::Trace *t : distinct) {
            {
                Span s(&sp, "trace", "index");
                s.arg("insts", static_cast<std::uint64_t>(t->size()));
                idx.push_back(std::make_unique<trace::TraceIndex>(*t));
            }
            Span s(&sp, "cache", "dmiss");
            s.arg("insts", static_cast<std::uint64_t>(t->size()));
            dmaps.push_back(cache::computeDataMissMap(*t, cfg.dcache));
        }
        Outcome o;
        sim::CmpResult res;
        try {
            std::unique_ptr<sim::CmpModel> m;
            std::vector<const trace::Trace *> ptrs;
            {
                Span s(&sp, "cmp", "begin");
                m = std::make_unique<sim::CmpModel>(cfg);
                for (unsigned i = 0; i < ts.size(); ++i) {
                    ptrs.push_back(ts[i].get());
                    const std::size_t k = static_cast<std::size_t>(
                            std::find(distinct.begin(), distinct.end(),
                                      ts[i].get()) -
                            distinct.begin());
                    m->setTraceIndex(i, idx[k].get());
                    m->setDataMissMap(i, &dmaps[k]);
                }
                m->beginRun(ptrs);
            }
            // Windows land on absolute stepInsts boundaries, so any
            // monotone target sequence reproduces one full run.
            const std::size_t step = 64 * 1024;
            for (std::size_t tgt = step;; tgt += step) {
                Span s(&sp, "cmp", "window");
                std::uint64_t before = 0;
                for (unsigned i = 0; i < ts.size(); ++i)
                    before += m->core(i).decodedInstructions();
                const bool done = m->advance(std::min(tgt, m->maxInsts()));
                std::uint64_t after = 0;
                for (unsigned i = 0; i < ts.size(); ++i)
                    after += m->core(i).decodedInstructions();
                s.arg("insts", static_cast<std::uint64_t>(after - before));
                if (done)
                    break;
            }
            Span s(&sp, "cmp", "finish");
            res = m->finishRun();
        } catch (const std::exception &e) {
            ++o.attempted;
            o.fail("cmp-" + mixes[u].first + " (traced): " + e.what());
            return o;
        }
        check(o, u, res);
        return o;
    }

  private:
    void
    check(Outcome &o, std::size_t u, const sim::CmpResult &r)
    {
        ++o.attempted;
        const auto &ts = mixes[u].second;
        const std::string what = "cmp-" + mixes[u].first;
        if (r.core.size() != ts.size()) {
            o.fail(what + ": " + std::to_string(r.core.size()) +
                   " core results for " + std::to_string(ts.size()) +
                   " cores");
            return;
        }
        for (std::size_t i = 0; i < ts.size(); ++i) {
            const std::string inv = cpu::simInvariantError(r.core[i]);
            if (!inv.empty()) {
                o.fail(what + " core " + std::to_string(i) +
                       ": invariant violated: " + inv);
                return;
            }
            if (r.core[i].instructions != ts[i]->size()) {
                o.fail(what + " core " + std::to_string(i) +
                       ": instructions differ from the trace length");
                return;
            }
            digestResult(o.digest, r.core[i]);
        }
        for (const std::uint64_t v : {r.arbRequests, r.arbGrants,
                                      r.arbConflicts, r.arbWaitCycles,
                                      r.arbQueueFullRejects, r.l2iHits,
                                      r.l2iMisses})
            o.digest.add(v);
        o.counts.add(r);
    }

    core::MachineParams cfg;
    std::vector<std::pair<std::string, std::vector<trace::TraceHandle>>>
            mixes;
};

// ---- main ------------------------------------------------------------------

/** Set-up (trace generation) runs this often; setup_s is the median. */
constexpr unsigned kSetupReps = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "harness: %s\n"
                 "usage: harness --workload fig2-serial|sampled-fast|"
                 "cmp-shared --seed N --seconds S --trace 0|1 --out FILE\n"
                 "  [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno != 0 || v[0] == '-')
        usage("bad value for " + flag + ": " + v);
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + f);
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = parseU64(f, v);
        else if (f == "--seconds")
            a.seconds = static_cast<double>(parseU64(f, v));
        else if (f == "--trace")
            a.trace = parseU64(f, v) != 0;
        else if (f == "--out")
            a.out = v;
        else if (f == "--trace-out")
            a.traceOut = v;
        else
            usage("unknown flag " + f);
    }
    if (a.out.empty())
        usage("--out is required");
    if (a.trace && a.traceOut.empty())
        usage("--trace 1 needs --trace-out");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

/** One timed sample: wall seconds and the indices of the probes taken
 * on either side. */
struct Sample
{
    double wall;
    std::size_t before;
    std::size_t after;
};

std::string
samplesJson(const std::vector<Sample> &v)
{
    std::string o = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        o += "[" + num(v[i].wall) + "," + std::to_string(v[i].before) +
             "," + std::to_string(v[i].after) + "]";
        if (i + 1 < v.size())
            o += ",";
    }
    return o + "]";
}

std::string
stringsJson(const std::vector<std::string> &v)
{
    std::string o = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        o += obs::jsonStr(v[i]);
        if (i + 1 < v.size())
            o += ",";
    }
    return o + "]";
}

/** Runs probe-bracketed timed calls; consecutive units share a probe. */
class Timer
{
  public:
    explicit Timer(Probe &p) : probe(p) {}

    template <typename F>
    Sample
    time(F &&fn)
    {
        if (probes.empty())
            measureProbe();
        const std::size_t before = probes.size() - 1;
        const auto t0 = Clock::now();
        fn();
        const double wall = secondsBetween(t0, Clock::now());
        measureProbe();
        return {wall, before, probes.size() - 1};
    }

    std::vector<std::array<double, 3>> probes;
    double probeSeconds = 0.0; ///< wall spent in probes, warm-up included

  private:
    void
    measureProbe()
    {
        const auto t0 = Clock::now();
        probes.push_back(probe.measure());
        probeSeconds += secondsBetween(t0, Clock::now());
    }

    Probe &probe;
};

/** Drop every ZBP_* variable so no knob can reshape a run. */
void
clearZbpEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "ZBP_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
        }
    for (const auto &n : names)
        unsetenv(n.c_str());
}

int
harnessMain(const Args &a)
{
    std::unique_ptr<Workload> w;
    if (a.workload == "fig2-serial")
        w = std::make_unique<Fig2Serial>();
    else if (a.workload == "sampled-fast")
        w = std::make_unique<SampledFast>();
    else if (a.workload == "cmp-shared")
        w = std::make_unique<CmpShared>();
    else
        usage("unknown workload " + a.workload);

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    if (nproc < 1 || w->workers() > static_cast<unsigned long>(nproc)) {
        std::fprintf(stderr, "harness: refusing %u workers on %ld CPUs\n",
                     w->workers(), nproc);
        return 2;
    }

    Probe probe;
    Timer timer(probe);
    std::vector<std::string> errors;
    std::unique_ptr<Spans> tracer;
    if (a.trace)
        tracer = std::make_unique<Spans>(a.traceOut);

    // Set-up: generate the traces kSetupReps times; every repeat must
    // reproduce the first byte for byte.  Repeats keep only a digest, so
    // peak memory holds one copy of the traces.
    const auto names = w->suites();
    std::vector<std::vector<Sample>> setup(kSetupReps);
    std::uint64_t setupInsts = 0;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            const workload::SuiteSpec spec = seededSuite(names[i], a.seed);
            trace::TraceHandle h;
            setup[rep].push_back(timer.time([&] {
                Span s(tracer.get(), "workload", "gen");
                h = std::make_shared<const trace::Trace>(
                        workload::makeSuiteTrace(spec, w->scale()));
                s.arg("insts", static_cast<std::uint64_t>(h->size()));
            }));
            if (rep == 0) {
                setupInsts += h->size();
                w->traces.push_back(std::move(h));
            } else if (traceDigest(*h) != traceDigest(*w->traces[i])) {
                errors.push_back("trace " + h->name() +
                                 " differs between set-up repeats");
            }
        }
    }
    w->prepare();

    // Measurement: whole passes over the units until the time is up.
    // With --trace 1 the time is split between an untraced and a traced
    // phase.
    const std::size_t nu = w->units();
    std::vector<std::vector<Sample>> samples(nu);
    std::vector<std::vector<Sample>> tracedSamples(nu);
    std::vector<std::uint64_t> unitDigest(nu, 0);
    std::vector<bool> haveDigest(nu, false);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Counts passCounts;

    const auto book = [&](std::size_t u, Outcome &o, const char *phase) {
        attempted += o.attempted;
        failed += o.failed;
        for (const auto &e : o.errors)
            errors.push_back(e);
        if (o.failed != 0)
            return;
        if (!haveDigest[u]) {
            unitDigest[u] = o.digest.value();
            haveDigest[u] = true;
        } else if (unitDigest[u] != o.digest.value()) {
            errors.push_back(w->unitName(u) + ": counters of the " +
                             phase + " run differ from the first run");
        }
    };

    const double untracedBudget = a.trace ? a.seconds / 2 : a.seconds;
    unsigned passes = 0;
    const auto m0 = Clock::now();
    do {
        for (std::size_t u = 0; u < nu; ++u) {
            Outcome o;
            samples[u].push_back(timer.time([&] { o = w->run(u); }));
            if (passes == 0)
                passCounts.merge(o.counts);
            book(u, o, "untraced");
        }
        ++passes;
    } while (secondsBetween(m0, Clock::now()) < untracedBudget);

    unsigned tracedPasses = 0;
    double tracedWall = 0.0;
    double tracedProbeSeconds = 0.0;
    if (a.trace) {
        const double probe0 = timer.probeSeconds;
        const auto t0 = Clock::now();
        do {
            Span pass(tracer.get(), "bench", "pass");
            for (std::size_t u = 0; u < nu; ++u) {
                Outcome o;
                tracedSamples[u].push_back(timer.time([&] {
                    Span s(tracer.get(), "bench", "unit");
                    s.arg("unit", static_cast<std::uint64_t>(u));
                    s.arg("pass", std::uint64_t{tracedPasses});
                    s.arg("insts", static_cast<std::uint64_t>(w->unitInsts(u)));
                    o = w->traced(u, *tracer);
                }));
                book(u, o, "traced");
            }
            ++tracedPasses;
        } while (secondsBetween(t0, Clock::now()) < a.seconds / 2);
        tracedWall = secondsBetween(t0, Clock::now());
        tracedProbeSeconds = timer.probeSeconds - probe0;
        tracer->tw.close();
    }

    Digest all;
    for (std::size_t u = 0; u < nu; ++u) {
        all.add(w->unitName(u));
        all.add(unitDigest[u]);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream f(a.out);
    if (!f)
        throw std::runtime_error("cannot write " + a.out);
    f << "{\"workload\":" << obs::jsonStr(a.workload)
      << ",\"seed\":" << a.seed << ",\"workers\":" << w->workers()
      << ",\"nproc\":" << nproc << ",\"setup_insts\":" << setupInsts
      << ",\"setup\":[";
    for (unsigned r = 0; r < kSetupReps; ++r)
        f << samplesJson(setup[r]) << (r + 1 < kSetupReps ? "," : "");
    f << "],\"units\":[";
    for (std::size_t u = 0; u < nu; ++u)
        f << "{\"name\":" << obs::jsonStr(w->unitName(u))
          << ",\"insts\":" << w->unitInsts(u)
          << ",\"samples\":" << samplesJson(samples[u])
          << ",\"traced\":" << samplesJson(tracedSamples[u]) << "}"
          << (u + 1 < nu ? "," : "");
    f << "],\"passes\":" << passes << ",\"traced_passes\":" << tracedPasses
      << ",\"traced_wall_s\":" << num(tracedWall)
      << ",\"traced_probe_s\":" << num(tracedProbeSeconds)
      << ",\"probes\":[";
    for (std::size_t i = 0; i < timer.probes.size(); ++i) {
        const auto &k = timer.probes[i];
        f << "[" << num(k[0]) << "," << num(k[1]) << "," << num(k[2]) << "]"
          << (i + 1 < timer.probes.size() ? "," : "");
    }
    f << "],\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":" << stringsJson(errors) << ",\"digest\":\""
      << all.hex() << "\",\"counts\":" << passCounts.json()
      << ",\"peak_rss_kb\":" << ru.ru_maxrss << "}\n";
    f.close();
    if (!f)
        throw std::runtime_error("short write to " + a.out);
    return errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    clearZbpEnvironment();
    try {
        return harnessMain(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "harness: %s\n", e.what());
        return 1;
    }
}
