/**
 * @file
 * Record/replay witness suite: every terminated path yields an
 * `s2e.witness.v1` witness whose concrete input assignment and
 * nondeterminism log replay the path solver-free to the identical
 * terminal outcome. Covers byte-identical witnesses across
 * numWorkers ∈ {1, 2, 4} (the witness is a pure function of the
 * path, not the schedule), full-coverage model extraction (no
 * default-zero holes), serialize→parse→serialize round trips, the
 * corruption harness (bit flips / truncation / wrong version reject
 * before any state is touched), divergence detection on tampered
 * witnesses, the emitWitnesses / witnessDir configuration knobs, and
 * the per-engine component-model table (witnesses identical whether it
 * is cold, warm or cleared; Unsat components never cached; bounded).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/replay/extract.hh"
#include "core/replay/replayer.hh"
#include "core/replay/witness.hh"
#include "guest/drivers.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "plugins/annotation.hh"
#include "support/differential.hh"
#include "support/logging.hh"
#include "tools/ddt.hh"

namespace s2e::core {
namespace {

namespace fs = std::filesystem;
using difftest::differentialConfig;
using difftest::machineFor;
using difftest::stressSource;
using replay::Witness;

/** The differential configuration (no budgets: budget kills land at
 *  schedule-dependent points; no model cache: cached models make
 *  extraction depend on query history) with witnesses on. */
EngineConfig
witnessConfig(unsigned workers)
{
    EngineConfig config = differentialConfig(workers);
    config.emitWitnesses = true;
    return config;
}

struct WitnessRun {
    /** pathId → serialized witness image. */
    std::map<std::string, std::vector<uint8_t>> images;
    std::vector<std::shared_ptr<const replay::Witness>> witnesses;
    RunResult run;
    /** Component models solved afresh / served by the engine's table,
     *  and the table's final size. */
    uint64_t componentSolves = 0;
    uint64_t componentHits = 0;
    size_t tableSize = 0;
};

void
collectWitnesses(Engine &engine, WitnessRun &out)
{
    out.componentSolves =
        engine.stats().get("engine.witness_component_solves");
    out.componentHits = engine.stats().get("engine.witness_component_hits");
    out.tableSize = engine.witnessModels().size();
    out.witnesses = engine.witnesses();
    for (const auto &w : out.witnesses) {
        bool fresh =
            out.images.emplace(w->pathId, replay::serializeWitness(*w))
                .second;
        EXPECT_TRUE(fresh) << "duplicate witness for path " << w->pathId;
    }
}

void
expectSameImages(const WitnessRun &serial, const WitnessRun &parallel,
                 unsigned workers)
{
    EXPECT_EQ(serial.images.size(), parallel.images.size())
        << "witness count diverged with " << workers << " workers";
    for (const auto &[path, img] : serial.images) {
        auto it = parallel.images.find(path);
        if (it == parallel.images.end()) {
            ADD_FAILURE() << "witness for path " << path
                          << " missing with " << workers << " workers";
            continue;
        }
        EXPECT_TRUE(img == it->second)
            << "witness for path " << path
            << " not byte-identical with " << workers << " workers";
    }
}

constexpr unsigned kWorkerCounts[] = {2, 4};

// --- Workload runners ----------------------------------------------------

void
licenseSetup(Engine &engine)
{
    auto &state = engine.initialState();
    uint32_t key_addr = guest::addConfigString(state, engine.builder(), 0,
                                               "AAAAAAAA");
    guest::setConfig(state, engine.builder(), guest::kCfgLicensePtr,
                     key_addr);
    engine.makeMemSymbolic(state, key_addr, guest::kLicenseKeyLen,
                           "license");
}

WitnessRun
runLicense(unsigned workers, const std::string &witness_dir = "")
{
    std::string src = guest::kernelSource() + guest::licenseCheckSource();
    EngineConfig config = witnessConfig(workers);
    config.witnessDir = witness_dir;
    Engine engine(machineFor(src), config);
    licenseSetup(engine);
    WitnessRun out;
    out.run = engine.run();
    collectWitnesses(engine, out);
    return out;
}

replay::ReplayResult
replayLicense(std::shared_ptr<const Witness> w)
{
    std::string src = guest::kernelSource() + guest::licenseCheckSource();
    replay::ReplayEngine rep(machineFor(src), EngineConfig{},
                             std::move(w));
    licenseSetup(rep.engine());
    return rep.run();
}

WitnessRun
runStress(unsigned workers)
{
    Engine engine(machineFor(stressSource(), 64 * 1024),
                  witnessConfig(workers));
    WitnessRun out;
    out.run = engine.run();
    collectWitnesses(engine, out);
    return out;
}

replay::ReplayResult
replayStress(std::shared_ptr<const Witness> w)
{
    replay::ReplayEngine rep(machineFor(stressSource(), 64 * 1024),
                             EngineConfig{}, std::move(w));
    return rep.run();
}

/** DDT+ over the PIO NIC under SC-SE: the only symbolic input is the
 *  hardware, and the workload terminates without budgets (budget
 *  kills would make witness sets schedule-dependent). */
tools::DdtConfig
ddtConfig(unsigned workers)
{
    tools::DdtConfig config;
    config.driver = guest::DriverKind::Pio;
    config.model = ConsistencyModel::ScSe;
    config.annotations = false;
    config.maxInstructions = 0;
    config.maxWallSeconds = 0;
    config.numWorkers = workers;
    config.emitWitnesses = true;
    config.solverOptions.useModelCache = false;
    return config;
}

WitnessRun
runDdt(unsigned workers)
{
    tools::Ddt ddt(ddtConfig(workers));
    WitnessRun out;
    out.run = ddt.run().run;
    collectWitnesses(ddt.engine(), out);
    return out;
}

replay::ReplayResult
replayDdt(std::shared_ptr<const Witness> w, RunResult *run_out = nullptr)
{
    tools::DdtConfig config = ddtConfig(1);
    config.emitWitnesses = false;
    config.replayWitness = std::move(w);
    tools::Ddt ddt(config);
    tools::DdtResult res = ddt.run();
    replay::ReplayResult v = replay::replayVerdict(ddt.engine());
    v.instructions = res.run.totalInstructions;
    v.wallSeconds = res.run.wallSeconds;
    if (run_out)
        *run_out = res.run;
    return v;
}

/** Two paths off one symbolic register bit, plus four symbolic bytes
 *  the program never reads (extraction-hole bait). */
const char *
twoPathSource()
{
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        testi r1, 1
        jeq zero
        movi r2, 1
        hlt
    zero:
        movi r2, 0
        hlt
    )";
}

constexpr uint32_t kPadAddr = 0x4000;

// --- Byte-identical witnesses across worker counts -----------------------

TEST(ReplayWitnessDifferential, LicenseWitnessesByteIdenticalAcrossWorkers)
{
    WitnessRun serial = runLicense(1);
    EXPECT_GT(serial.images.size(), 4u);
    EXPECT_EQ(serial.run.witnessesEmitted, serial.images.size());
    EXPECT_EQ(serial.run.witnessExtractFailures, 0u);
    for (unsigned w : kWorkerCounts)
        expectSameImages(serial, runLicense(w), w);
}

TEST(ReplayWitnessDifferential, ForkStormWitnessesByteIdenticalAcrossWorkers)
{
    WitnessRun serial = runStress(1);
    EXPECT_EQ(serial.images.size(), 512u);
    EXPECT_EQ(serial.run.witnessExtractFailures, 0u);
    for (unsigned w : kWorkerCounts)
        expectSameImages(serial, runStress(w), w);
}

TEST(ReplayWitnessDifferential, DdtWitnessesByteIdenticalAcrossWorkers)
{
    WitnessRun serial = runDdt(1);
    EXPECT_GT(serial.images.size(), 4u);
    EXPECT_EQ(serial.run.witnessExtractFailures, 0u);
    for (unsigned w : kWorkerCounts)
        expectSameImages(serial, runDdt(w), w);
}

/** FNV-1a-64 over a run's witness images, sorted by content. */
std::string
witnessDigest(const WitnessRun &run)
{
    std::vector<std::vector<uint8_t>> images;
    for (const auto &[path, img] : run.images)
        images.push_back(img);
    std::sort(images.begin(), images.end());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &img : images)
        for (uint8_t byte : img)
            h = (h ^ byte) * 0x100000001b3ULL;
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

/** DDT+ on the pcnet driver as perfbench's ddt_pcnet runs it. */
tools::DdtConfig
pcnetConfig()
{
    tools::DdtConfig config;
    config.driver = guest::DriverKind::Dma;
    config.model = ConsistencyModel::Lc;
    config.annotations = true;
    config.maxStates = 256;
    config.maxWallSeconds = 0;
    config.maxInstructions = 0;
    config.emitWitnesses = true;
    config.searcherSeed = 42;
    return config;
}

TEST(ReplayWitnessDifferential, DdtWitnessDigestIsPinned)
{
    // A digest change means some witness's bytes changed: its model,
    // its event log or the wire format. Record a new digest only with
    // the reason.
    WitnessRun pio = runDdt(1);
    EXPECT_EQ(pio.images.size(), 23u);
    EXPECT_EQ(witnessDigest(pio), "91d2636274d72bec");

    // DDT+ on the pcnet driver as perfbench's ddt_pcnet runs it
    // (searcher seed 42). Its witnesses include paths whose component
    // models differ from a whole-path model.
    tools::Ddt ddt(pcnetConfig());
    WitnessRun pcnet;
    pcnet.run = ddt.run().run;
    collectWitnesses(ddt.engine(), pcnet);
    EXPECT_EQ(pcnet.images.size(), 256u);
    EXPECT_EQ(pcnet.componentSolves, 493u);
    EXPECT_EQ(pcnet.componentHits, 2629u);
    EXPECT_EQ(witnessDigest(pcnet), "3e56d99ca6473b88");
}

TEST(ReplayWitnessDifferential, DdtSolverDecisionsArePinned)
{
    // The solver front end's decisions on the same run: how many
    // queries reach SAT, how many a cached model answers, how many
    // reuse a path context, and how many constraints slicing drops. A
    // change meant to alter only the cost of slicing, model probes or
    // evaluation must leave every count here as it is. Only
    // exploration queries count: reporting a bug queries nothing.
    tools::Ddt ddt(pcnetConfig());
    ddt.run();
    Stats &s = ddt.engine().solver().stats();
    EXPECT_EQ(s.get("solver.queries"), 1574u);
    EXPECT_EQ(s.get("solver.sat_queries"), 480u);
    EXPECT_EQ(s.get("solver.ctx_reuses"), 228u);
    EXPECT_EQ(s.get("solver.model_cache_hits"), 1094u);
    EXPECT_EQ(s.get("solver.constraints_sliced_away"), 40851u);
}

// --- Solver-free replay to the identical terminal outcome ----------------

TEST(ReplayWitnessOracle, LicenseEveryPathReplaysSolverFree)
{
    WitnessRun serial = runLicense(1);
    ASSERT_FALSE(serial.witnesses.empty());
    for (const auto &w : serial.witnesses) {
        replay::ReplayResult v = replayLicense(w);
        EXPECT_TRUE(v.ok) << "path " << w->pathId << ": " << v.divergence;
        EXPECT_EQ(v.solverQueries, 0u) << "path " << w->pathId;
        EXPECT_EQ(v.terminalPc, w->terminalPc);
        EXPECT_EQ(v.terminalStatus, w->terminalStatus);
        EXPECT_EQ(v.terminalInstr, w->terminalInstr);
    }
}

TEST(ReplayWitnessOracle, ForkStormSampleReplaysSolverFree)
{
    WitnessRun serial = runStress(1);
    ASSERT_EQ(serial.witnesses.size(), 512u);
    // Every 32nd path: 16 replays spread across the fork tree.
    for (size_t i = 0; i < serial.witnesses.size(); i += 32) {
        const auto &w = serial.witnesses[i];
        replay::ReplayResult v = replayStress(w);
        EXPECT_TRUE(v.ok) << "path " << w->pathId << ": " << v.divergence;
        EXPECT_EQ(v.solverQueries, 0u) << "path " << w->pathId;
    }
}

TEST(ReplayWitnessOracle, DdtEveryPathReplaysAtAllWorkerCounts)
{
    WitnessRun serial = runDdt(1);
    ASSERT_FALSE(serial.witnesses.empty());
    for (const auto &w : serial.witnesses) {
        RunResult run;
        replay::ReplayResult v = replayDdt(w, &run);
        EXPECT_TRUE(v.ok) << "path " << w->pathId << ": " << v.divergence;
        EXPECT_EQ(v.solverQueries, 0u) << "path " << w->pathId;
        EXPECT_EQ(run.replayDivergences, 0u) << "path " << w->pathId;
    }
    // Witnesses recorded by parallel runs replay just as cleanly.
    for (unsigned workers : kWorkerCounts) {
        WitnessRun par = runDdt(workers);
        size_t sample = 0;
        for (const auto &w : par.witnesses) {
            if (sample++ >= 5)
                break;
            replay::ReplayResult v = replayDdt(w);
            EXPECT_TRUE(v.ok) << "path " << w->pathId << " (" << workers
                              << " workers): " << v.divergence;
            EXPECT_EQ(v.solverQueries, 0u);
        }
    }
}

TEST(ReplayWitnessOracle, PingInterruptDeliveryReplays)
{
    // Single concrete path through kernel + DMA driver + ping harness:
    // the witness log carries interrupt delivery points (and DMA), not
    // input substitutions.
    std::string src = guest::kernelSource() +
                      guest::driverSource(guest::DriverKind::Dma) +
                      guest::pingSource(/*patched=*/true);
    Engine engine(machineFor(src, guest::kRamSize, /*loopback=*/true),
                  witnessConfig(1));
    guest::setConfig(engine.initialState(), engine.builder(),
                     guest::kCfgCardType, 0);
    engine.run();
    auto witnesses = engine.witnesses();
    ASSERT_GE(witnesses.size(), 1u);

    bool saw_interrupt = false;
    for (const auto &ev : witnesses.front()->events)
        if (ev.kind == replay::SiteKind::Interrupt)
            saw_interrupt = true;
    EXPECT_TRUE(saw_interrupt)
        << "ping witness records no interrupt delivery points";

    replay::ReplayEngine rep(
        machineFor(src, guest::kRamSize, /*loopback=*/true),
        EngineConfig{}, witnesses.front());
    guest::setConfig(rep.engine().initialState(), rep.engine().builder(),
                     guest::kCfgCardType, 0);
    replay::ReplayResult v = rep.run();
    EXPECT_TRUE(v.ok) << v.divergence;
    EXPECT_EQ(v.solverQueries, 0u);
}

// --- Plugin fork decisions (ApiFork) -------------------------------------

/** A plugin fork at `work`: the child takes the r1 = 0 arm. r7 is the
 *  per-path "already forked" latch (the child re-executes the block
 *  from its start, so the callback fires again on it). */
const char *
apiForkSource()
{
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 1
        jmp work
    work:
        cmpi r1, 0
        jeq zero
        movi r2, 5
        hlt
    zero:
        movi r2, 9
        hlt
    )";
}

void
apiForkAnnotation(Engine &engine, plugins::Annotation &ann,
                  uint32_t work_pc)
{
    ann.at(work_pc, [](ExecutionState &st, Engine &e) {
        if (st.cpu.regs[7].isConcrete() && st.cpu.regs[7].concrete() != 0)
            return;
        st.cpu.regs[7] = Value(uint32_t(1));
        ExecutionState *child = e.forkState(st);
        if (child)
            child->cpu.regs[1] = Value(uint32_t(0));
    });
    (void)engine;
}

TEST(ReplayWitnessOracle, ApiForkRolesRecordAndReplay)
{
    isa::Program prog = isa::assemble(apiForkSource());
    uint32_t work_pc = prog.symbol("work");

    Engine engine(machineFor(apiForkSource(), 64 * 1024),
                  witnessConfig(1));
    plugins::Annotation ann(engine);
    apiForkAnnotation(engine, ann, work_pc);
    engine.run();

    auto witnesses = engine.witnesses();
    ASSERT_EQ(witnesses.size(), 2u);
    for (const auto &w : witnesses) {
        const replay::NondetEvent *fork_ev = nullptr;
        for (const auto &ev : w->events)
            if (ev.kind == replay::SiteKind::ApiFork)
                fork_ev = &ev;
        ASSERT_NE(fork_ev, nullptr)
            << "path " << w->pathId << " has no ApiFork event";
        // Role 0 on the parent path, role 1 on the injected child.
        EXPECT_EQ(fork_ev->a, w->pathId == "0" ? 0u : 1u);

        replay::ReplayEngine rep(machineFor(apiForkSource(), 64 * 1024),
                                 EngineConfig{}, w);
        plugins::Annotation replay_ann(rep.engine());
        apiForkAnnotation(rep.engine(), replay_ann, work_pc);
        replay::ReplayResult v = rep.run();
        EXPECT_TRUE(v.ok) << "path " << w->pathId << ": " << v.divergence;
        EXPECT_EQ(v.solverQueries, 0u);
    }
}

// --- Serialization round trip & corruption harness -----------------------

TEST(ReplayWitnessFormat, RoundTripIsByteIdentical)
{
    WitnessRun serial = runLicense(1);
    ASSERT_FALSE(serial.witnesses.empty());
    for (const auto &w : serial.witnesses) {
        std::vector<uint8_t> img = replay::serializeWitness(*w);
        EXPECT_TRUE(replay::validateWitnessImage(img));
        Witness parsed;
        std::string error;
        ASSERT_TRUE(replay::parseWitness(img, parsed, &error)) << error;
        EXPECT_TRUE(parsed == *w) << "path " << w->pathId;
        EXPECT_TRUE(replay::serializeWitness(parsed) == img)
            << "re-serialization of path " << w->pathId
            << " is not byte-identical";
    }
}

TEST(ReplayWitnessFormat, CorruptImagesAreRejectedNotApplied)
{
    WitnessRun serial = runLicense(1);
    ASSERT_FALSE(serial.witnesses.empty());
    const std::vector<uint8_t> img =
        replay::serializeWitness(*serial.witnesses.front());

    Witness sentinel;
    sentinel.pathId = "sentinel";
    sentinel.terminalPc = 0xDEAD;
    sentinel.inputs.push_back({"keep", 8, 7});

    auto expect_rejected = [&](const std::vector<uint8_t> &bad,
                               const std::string &what) {
        EXPECT_FALSE(replay::validateWitnessImage(bad) &&
                     bad.size() == img.size() && bad == img)
            << what; // only the pristine image may validate
        Witness out = sentinel;
        std::string error;
        EXPECT_FALSE(replay::parseWitness(bad, out, &error)) << what;
        EXPECT_FALSE(error.empty()) << what;
        // Validate-before-apply: the output witness is untouched.
        EXPECT_EQ(out.pathId, "sentinel") << what;
        EXPECT_EQ(out.terminalPc, 0xDEADu) << what;
        ASSERT_EQ(out.inputs.size(), 1u) << what;
        EXPECT_EQ(out.inputs[0].name, "keep") << what;
    };

    // Single-bit corruption anywhere in the image. The only bytes a
    // flip may survive are the header's reserved u32 (offsets 12-15,
    // ignored by checkImage) — and then the parse must still yield
    // the original witness, untouched by the flip.
    for (size_t off = 0; off < img.size();
         off += std::max<size_t>(1, img.size() / 64)) {
        std::vector<uint8_t> bad = img;
        bad[off] ^= 0x40;
        if (off >= 12 && off < 16) {
            Witness out;
            ASSERT_TRUE(replay::parseWitness(bad, out))
                << "reserved-byte flip at offset " << off;
            EXPECT_TRUE(out == *serial.witnesses.front());
            continue;
        }
        expect_rejected(bad, strprintf("bit flip at offset %zu", off));
    }

    // Truncation at header, mid-payload and off-by-one boundaries.
    for (size_t n : {size_t(0), size_t(8), size_t(31), img.size() / 2,
                     img.size() - 1}) {
        std::vector<uint8_t> bad(img.begin(), img.begin() + n);
        expect_rejected(bad, strprintf("truncated to %zu bytes", n));
    }

    // Wrong format version (offset 8, little-endian u32; the payload
    // checksum is still valid, the version gate alone must reject).
    {
        std::vector<uint8_t> bad = img;
        bad[8] = static_cast<uint8_t>(replay::kWitnessFormatVersion + 1);
        std::string error;
        EXPECT_FALSE(replay::validateWitnessImage(bad, &error));
        EXPECT_NE(error.find("version"), std::string::npos) << error;
        expect_rejected(bad, "wrong format version");
    }
}

// --- Model extraction covers every symbolic byte -------------------------

TEST(ReplayWitnessExtraction, AssignmentCoversAllSymbolicBytes)
{
    // One constrained 32-bit register variable plus four symbolic
    // bytes the program never reads: the extracted assignment must
    // cover all five (a zero-default extractor would drop the four
    // unconstrained bytes, and could violate the reg constraint).
    Engine engine(machineFor(twoPathSource(), 64 * 1024),
                  witnessConfig(1));
    engine.makeMemSymbolic(engine.initialState(), kPadAddr, 4, "pad");
    RunResult run = engine.run();
    EXPECT_EQ(run.witnessExtractFailures, 0u);
    auto witnesses = engine.witnesses();
    ASSERT_EQ(witnesses.size(), 2u);

    bool saw_bit_set = false, saw_bit_clear = false;
    for (const auto &w : witnesses) {
        ASSERT_EQ(w->inputs.size(), 5u)
            << "path " << w->pathId
            << ": extraction left holes in the assignment";
        size_t pad_bytes = 0;
        const replay::WitnessInput *reg = nullptr;
        for (const auto &in : w->inputs) {
            if (in.width == 8) {
                pad_bytes++;
                EXPECT_EQ(in.name.rfind("pad", 0), 0u) << in.name;
            } else {
                EXPECT_EQ(in.width, 32u) << in.name;
                reg = &in;
            }
        }
        EXPECT_EQ(pad_bytes, 4u);
        ASSERT_NE(reg, nullptr);
        // The model must satisfy the path constraint on bit 0 — a
        // default-zero value would break the bit-set path.
        if (reg->value & 1)
            saw_bit_set = true;
        else
            saw_bit_clear = true;
    }
    EXPECT_TRUE(saw_bit_set);
    EXPECT_TRUE(saw_bit_clear);
}

// --- Component models -----------------------------------------------------

/** Re-extract the witness of every path `engine` witnessed, through
 *  `models` (cleared before each path when `clear_each`). */
WitnessRun
reextract(Engine &engine, replay::ComponentModels &models, bool clear_each)
{
    std::map<std::string, const ExecutionState *> by_path;
    for (const auto &s : engine.allStates())
        by_path[s->pathId()] = s.get();
    replay::WitnessSolver ws(engine.builder(), engine.config().solverOptions,
                             nullptr);
    WitnessRun out;
    for (const auto &w : engine.witnesses()) {
        auto it = by_path.find(w->pathId);
        if (it == by_path.end()) {
            ADD_FAILURE() << "no state for witnessed path " << w->pathId;
            continue;
        }
        if (clear_each)
            models.clear();
        replay::ExtractResult r = replay::extractWitness(
            *it->second, engine.builder(), ws, models);
        if (!r.witness) {
            ADD_FAILURE() << "path " << w->pathId << ": " << r.error;
            continue;
        }
        out.componentSolves += r.componentSolves;
        out.componentHits += r.componentHits;
        out.images.emplace(w->pathId, replay::serializeWitness(*r.witness));
    }
    return out;
}

TEST(ReplayWitnessExtraction, DdtWitnessesIgnoreComponentTableState)
{
    // Cold: a serial run fills its table in path order, and every
    // fresh solve adds one entry.
    WitnessRun serial = runDdt(1);
    ASSERT_GT(serial.images.size(), 4u);
    EXPECT_GT(serial.componentSolves, 0u);
    EXPECT_GT(serial.componentHits, 0u);
    EXPECT_EQ(serial.componentSolves, serial.tableSize);

    // A 2-worker run fills its table in schedule order; its witnesses
    // match the serial ones byte for byte.
    tools::Ddt ddt(ddtConfig(2));
    ddt.run();
    Engine &engine = ddt.engine();
    WitnessRun parallel;
    collectWitnesses(engine, parallel);
    expectSameImages(serial, parallel, 2);

    // Warm: extracting the 2-worker paths again from that table solves
    // nothing and yields the same bytes.
    WitnessRun warm = reextract(engine, engine.witnessModels(), false);
    EXPECT_EQ(warm.componentSolves, 0u);
    EXPECT_GT(warm.componentHits, 0u);
    expectSameImages(serial, warm, 2);

    // Cleared before every path: each path solves all its components.
    replay::ComponentModels cleared;
    WitnessRun each = reextract(engine, cleared, true);
    EXPECT_EQ(each.componentHits, 0u);
    EXPECT_EQ(each.componentSolves,
              serial.componentSolves + serial.componentHits);
    expectSameImages(serial, each, 2);
}

TEST(ReplayWitnessExtraction, BackToBackDdtEnginesKeepPinnedDigest)
{
    // Each engine, and each of its workers, extracts on a witness
    // solver tied to that engine's builder. A solver that outlived its
    // engine, or memo state carried from the first run into the
    // second, would move the second run's bytes.
    for (int run = 0; run < 2; ++run) {
        tools::Ddt ddt(pcnetConfig());
        WitnessRun pcnet;
        pcnet.run = ddt.run().run;
        collectWitnesses(ddt.engine(), pcnet);
        EXPECT_EQ(pcnet.images.size(), 256u) << "run " << run;
        EXPECT_EQ(witnessDigest(pcnet), "3e56d99ca6473b88") << "run " << run;
    }
}

TEST(ReplayWitnessExtraction, FourWorkerWitnessesMatchFreshExtraction)
{
    // Four workers extract on their own witness solvers (the tsan
    // label runs this under ThreadSanitizer, which reports a solver
    // shared between threads). Which paths a budgeted 4-worker run
    // reaches depends on the schedule; each witness must still be the
    // bytes a fresh solver and an empty component table give its path.
    tools::DdtConfig config = pcnetConfig();
    config.numWorkers = 4;
    tools::Ddt ddt(config);
    ddt.run();
    Engine &engine = ddt.engine();
    WitnessRun parallel;
    collectWitnesses(engine, parallel);
    ASSERT_GT(parallel.images.size(), 0u);

    std::map<std::string, const ExecutionState *> by_path;
    for (const auto &st : engine.allStates())
        by_path[st->pathId()] = st.get();
    for (const auto &[path, img] : parallel.images) {
        auto it = by_path.find(path);
        ASSERT_NE(it, by_path.end()) << "no state for witnessed path " << path;
        replay::WitnessSolver ws(engine.builder(),
                                 engine.config().solverOptions, nullptr);
        replay::ComponentModels models;
        replay::ExtractResult r = replay::extractWitness(
            *it->second, engine.builder(), ws, models);
        ASSERT_TRUE(r.witness) << "path " << path << ": " << r.error;
        EXPECT_TRUE(replay::serializeWitness(*r.witness) == img)
            << "witness for path " << path << " differs from a fresh one";
    }
}

// --- The witness extraction thread -----------------------------------------

/** Witness images of a 1-worker pcnet run in witnesses() order, and
 *  the witnessed paths in the order their kill events fired. */
struct OrderedRun {
    std::vector<std::vector<uint8_t>> images;
    std::vector<std::string> witnessOrder;
    std::vector<std::string> killOrder;
};

OrderedRun
runPcnetOrdered()
{
    tools::Ddt ddt(pcnetConfig());
    OrderedRun out;
    std::vector<std::string> kills; // one worker: fired in retirement order
    ddt.engine().events().onStateKill.subscribe(
        [&kills](ExecutionState &s) { kills.push_back(s.pathId()); });
    ddt.run();
    std::set<std::string> witnessed;
    for (const auto &w : ddt.engine().witnesses()) {
        out.images.push_back(replay::serializeWitness(*w));
        out.witnessOrder.push_back(w->pathId);
        witnessed.insert(w->pathId);
    }
    for (const std::string &path : kills)
        if (witnessed.count(path))
            out.killOrder.push_back(path);
    return out;
}

TEST(ReplayWitnessExtraction, OneWorkerWitnessesKeepRetirementOrder)
{
    // The extraction thread and the worker's drain finish jobs in any
    // order; each witness still lands in the slot its path took when
    // it retired.
    OrderedRun first = runPcnetOrdered();
    ASSERT_EQ(first.images.size(), 256u);
    EXPECT_EQ(first.witnessOrder, first.killOrder);
    OrderedRun second = runPcnetOrdered();
    EXPECT_EQ(second.witnessOrder, first.witnessOrder);
    EXPECT_TRUE(second.images == first.images)
        << "back-to-back 1-worker runs gave different ordered witnesses";
}

TEST(ReplayWitnessExtraction, RunReturnsWithEveryWitnessDone)
{
    for (unsigned workers : {1u, 4u}) {
        tools::DdtConfig config = pcnetConfig();
        config.numWorkers = workers;
        tools::Ddt ddt(config);
        RunResult run = ddt.run().run;
        Engine &engine = ddt.engine();
        // Every state was released, and every queued job finished:
        // a job still running would be missing from both sums.
        EXPECT_EQ(run.witnessesEmitted + run.witnessExtractFailures +
                      run.witnessesSkipped,
                  engine.allStates().size())
            << workers << " workers";
        EXPECT_EQ(run.witnessesEmitted, engine.witnesses().size())
            << workers << " workers";
        EXPECT_EQ(run.witnessExtractFailures, 0u) << workers << " workers";
        EXPECT_GE(engine.stats().get("engine.witness.backlog_peak"), 1u)
            << workers << " workers";
    }
}

TEST(ReplayWitnessExtraction, EnginesShutDownCleanlyAroundTheExtractor)
{
    // Destroyed right after run(): no extraction may outlive it (the
    // sanitizer gates catch a job reading a freed state).
    {
        tools::Ddt ddt(pcnetConfig());
        ddt.run();
        EXPECT_EQ(ddt.engine().witnesses().size(), 256u);
    }
    // Destroyed without ever running: no thread was started.
    {
        tools::Ddt ddt(pcnetConfig());
        EXPECT_TRUE(ddt.engine().witnesses().empty());
        EXPECT_EQ(ddt.engine().stats().get("engine.witness.backlog_peak"),
                  0u);
    }
}

/** A state over logged 32-bit register inputs `logged`, carrying the
 *  path constraints `constraints`. */
std::unique_ptr<ExecutionState>
stateWith(const std::vector<std::string> &logged,
          std::vector<ExprRef> constraints)
{
    auto state = std::make_unique<ExecutionState>(4096, vm::DeviceSet{});
    for (const std::string &name : logged) {
        replay::NondetEvent ev;
        ev.kind = replay::SiteKind::SymReg;
        ev.vars = {name};
        state->replayLog.events.push_back(ev);
    }
    state->constraints = std::move(constraints);
    return state;
}

TEST(ReplayWitnessExtraction, PathModelIsTheUnionOfComponentModels)
{
    expr::ExprBuilder b;
    ExprRef a = b.var("a", 32), x = b.var("b", 32), c = b.var("c", 32);
    ExprRef a_is_1 = b.eq(a, b.constant(1, 32));
    ExprRef x_small = b.ult(x, b.constant(5, 32));
    ExprRef x_odd = b.eq(b.extract(x, 0, 1), b.constant(1, 1));
    ExprRef c_is_3 = b.eq(c, b.constant(3, 32));
    // Components {a}, {b: small, odd} and {c}, interleaved on the path.
    auto first =
        stateWith({"a", "b", "c"}, {x_small, a_is_1, x_odd, c_is_3});
    replay::ComponentModels models;
    replay::WitnessSolver ws(b, solver::SolverOptions{}, nullptr);
    replay::ExtractResult r =
        replay::extractWitness(*first, b, ws, models);
    ASSERT_TRUE(r.witness) << r.error;
    EXPECT_EQ(r.componentSolves, 3u);
    EXPECT_EQ(r.componentHits, 0u);
    EXPECT_EQ(models.size(), 3u);
    ASSERT_EQ(r.witness->inputs.size(), 3u);
    EXPECT_EQ(r.witness->find("a")->value, 1u);
    uint64_t xv = r.witness->find("b")->value;
    EXPECT_TRUE(xv < 5 && (xv & 1)) << xv;
    EXPECT_EQ(r.witness->find("c")->value, 3u);

    // Another path with the same {b} component sequence reuses it.
    ExprRef a_is_2 = b.eq(a, b.constant(2, 32));
    auto second = stateWith({"a", "b"}, {a_is_2, x_small, x_odd});
    r = replay::extractWitness(*second, b, ws, models);
    ASSERT_TRUE(r.witness) << r.error;
    EXPECT_EQ(r.componentSolves, 1u);
    EXPECT_EQ(r.componentHits, 1u);
    EXPECT_EQ(r.witness->find("a")->value, 2u);
    EXPECT_EQ(r.witness->find("b")->value, xv);
}

TEST(ReplayWitnessExtraction, UnsatComponentFailsAndIsNotCached)
{
    expr::ExprBuilder b;
    ExprRef a = b.var("a", 32), x = b.var("b", 32), c = b.var("c", 32);
    ExprRef a_is_1 = b.eq(a, b.constant(1, 32));
    ExprRef x_lo = b.ult(x, b.constant(5, 32));
    ExprRef x_hi = b.ugt(x, b.constant(10, 32));
    ExprRef c_is_3 = b.eq(c, b.constant(3, 32));
    // Components {a}, {b: x < 5 and x > 10, Unsat} and {c}.
    auto state = stateWith({"a", "b", "c"}, {a_is_1, x_lo, c_is_3, x_hi});
    replay::ComponentModels models;
    replay::WitnessSolver ws(b, solver::SolverOptions{}, nullptr);
    replay::ExtractResult r =
        replay::extractWitness(*state, b, ws, models);
    EXPECT_FALSE(r.witness);
    EXPECT_EQ(r.error, "path constraints unsatisfiable");
    EXPECT_EQ(r.componentSolves, 2u); // {a}, then {b} fails
    EXPECT_EQ(models.size(), 1u);
    expr::Assignment probe;
    EXPECT_TRUE(models.lookup({a_is_1}, probe));
    EXPECT_FALSE(models.lookup({x_lo, x_hi}, probe));

    // A retry is served {a} and solves the Unsat component again.
    r = replay::extractWitness(*state, b, ws, models);
    EXPECT_EQ(r.error, "path constraints unsatisfiable");
    EXPECT_EQ(r.componentHits, 1u);
    EXPECT_EQ(r.componentSolves, 1u);
    EXPECT_EQ(models.size(), 1u);
}

TEST(ReplayWitnessExtraction, UnloggedVariableInLaterComponentFails)
{
    expr::ExprBuilder b;
    ExprRef a = b.var("a", 32), x = b.var("b", 32), c = b.var("c", 32);
    // "b" is constrained but never logged; its component comes last.
    auto state = stateWith({"a", "c"}, {b.eq(a, b.constant(1, 32)),
                                        b.eq(c, b.constant(3, 32)),
                                        b.eq(x, b.constant(2, 32))});
    replay::ComponentModels models;
    replay::WitnessSolver ws(b, solver::SolverOptions{}, nullptr);
    replay::ExtractResult r =
        replay::extractWitness(*state, b, ws, models);
    EXPECT_FALSE(r.witness);
    EXPECT_EQ(r.error,
              "constraint variable 'b' missing from nondeterminism log");
    EXPECT_EQ(r.componentSolves, 0u);
    EXPECT_EQ(models.size(), 0u);
}

TEST(ReplayWitnessExtraction, EnginesDoNotShareComponentModels)
{
    std::string src = guest::kernelSource() + guest::licenseCheckSource();
    Engine first(machineFor(src), witnessConfig(1));
    licenseSetup(first);
    first.run();
    WitnessRun one;
    collectWitnesses(first, one);
    ASSERT_GT(one.tableSize, 0u);

    // A second engine in the same process starts empty and solves
    // every component itself.
    Engine second(machineFor(src), witnessConfig(1));
    EXPECT_EQ(second.witnessModels().size(), 0u);
    licenseSetup(second);
    second.run();
    WitnessRun two;
    collectWitnesses(second, two);
    EXPECT_EQ(two.componentSolves, one.componentSolves);
    EXPECT_EQ(two.componentHits, one.componentHits);
    EXPECT_EQ(two.tableSize, one.tableSize);
    EXPECT_EQ(first.witnessModels().size(), one.tableSize);
    expectSameImages(one, two, 1);
}

TEST(ReplayWitnessExtraction, ComponentTableIsBoundedAndClearable)
{
    constexpr size_t kCap = replay::ComponentModels::kMaxEntries;
    expr::ExprBuilder b;
    ExprRef x = b.var("x", 32);
    auto key = [&](size_t i) {
        return replay::ComponentModels::Key{b.eq(x, b.constant(i, 32))};
    };
    replay::ComponentModels models;
    expr::Assignment model;
    model.setById(x->varId(), 7);
    for (size_t i = 0; i < kCap; ++i)
        models.insert(key(i), model);
    EXPECT_EQ(models.size(), kCap);
    models.insert(key(0), model); // present: no growth, no clear
    EXPECT_EQ(models.size(), kCap);

    // One past the cap clears the table wholesale.
    models.insert(key(kCap), model);
    EXPECT_EQ(models.size(), 1u);
    expr::Assignment got;
    EXPECT_FALSE(models.lookup(key(0), got));
    ASSERT_TRUE(models.lookup(key(kCap), got));
    EXPECT_EQ(got.lookup(x->varId()), 7u);

    models.clear();
    EXPECT_EQ(models.size(), 0u);
}

// --- Divergence detection ------------------------------------------------

TEST(ReplayWitnessDivergence, TamperedBranchChoiceReportsFirstMismatch)
{
    WitnessRun serial = runLicense(1);
    ASSERT_FALSE(serial.witnesses.empty());
    // Flip the recorded direction of the first branch site.
    Witness tampered = *serial.witnesses.front();
    replay::NondetEvent *branch = nullptr;
    for (auto &ev : tampered.events)
        if (ev.kind == replay::SiteKind::Branch) {
            branch = &ev;
            break;
        }
    ASSERT_NE(branch, nullptr) << "license witness has no branch sites";
    branch->a ^= 0x40;

    replay::ReplayResult v = replayLicense(
        std::make_shared<const Witness>(std::move(tampered)));
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.divergence.find("branch"), std::string::npos)
        << v.divergence;
}

TEST(ReplayWitnessDivergence, TamperedInputValueDivergesAtItsBranch)
{
    Engine engine(machineFor(twoPathSource(), 64 * 1024),
                  witnessConfig(1));
    engine.makeMemSymbolic(engine.initialState(), kPadAddr, 4, "pad");
    engine.run();
    auto witnesses = engine.witnesses();
    ASSERT_EQ(witnesses.size(), 2u);

    // Flip the decision bit of the register input: the replayed
    // execution takes the other arm and must report the branch site.
    Witness tampered = *witnesses.front();
    bool flipped = false;
    for (auto &in : tampered.inputs)
        if (in.width == 32) {
            in.value ^= 1;
            flipped = true;
        }
    ASSERT_TRUE(flipped);

    replay::ReplayEngine rep(machineFor(twoPathSource(), 64 * 1024),
                             EngineConfig{},
                             std::make_shared<const Witness>(
                                 std::move(tampered)));
    rep.engine().makeMemSymbolic(rep.engine().initialState(), kPadAddr, 4,
                                 "pad");
    replay::ReplayResult v = rep.run();
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.divergence.find("branch"), std::string::npos)
        << v.divergence;
    ASSERT_NE(rep.engine().replayCursor(), nullptr);
    EXPECT_TRUE(rep.engine().replayCursor()->diverged());
}

// --- Configuration knobs -------------------------------------------------

TEST(ReplayWitnessConfig, EmissionIsOffByDefault)
{
    EngineConfig config;
    config.solverOptions.useModelCache = false;
    Engine engine(machineFor(twoPathSource(), 64 * 1024), config);
    RunResult run = engine.run();
    EXPECT_TRUE(engine.witnesses().empty());
    EXPECT_EQ(run.witnessesEmitted, 0u);
}

TEST(ReplayWitnessConfig, RcCcPathsAreNotWitnessed)
{
    // RC-CC ignores feasibility: its paths may be infeasible, so no
    // sound concrete model exists and recording stays disabled.
    EngineConfig config = witnessConfig(1);
    config.model = ConsistencyModel::RcCc;
    Engine engine(machineFor(twoPathSource(), 64 * 1024), config);
    RunResult run = engine.run();
    EXPECT_TRUE(engine.witnesses().empty());
    EXPECT_EQ(run.witnessesEmitted, 0u);
}

TEST(ReplayWitnessConfig, WitnessDirHoldsByteIdenticalImages)
{
    fs::path dir = fs::temp_directory_path() /
                   strprintf("s2e-witness-test-%ld", (long)getpid());
    fs::remove_all(dir);
    WitnessRun serial = runLicense(1, dir.string());
    ASSERT_FALSE(serial.images.empty());
    for (const auto &[path_id, img] : serial.images) {
        fs::path file = dir / (path_id + ".witness");
        ASSERT_TRUE(fs::exists(file)) << file;
        std::ifstream in(file, std::ios::binary);
        std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        EXPECT_TRUE(bytes == img)
            << "on-disk witness for path " << path_id
            << " differs from the in-memory image";
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace s2e::core
