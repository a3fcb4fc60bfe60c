/**
 * @file
 * State-lifecycle suite: checkpoints, the `s2e.state.v1` serializer,
 * fault-tolerant spill-to-disk, s2e_merge_point state merging and
 * memory accounting.
 *
 * Covers the robustness contracts of the lifecycle subsystem:
 *
 *  - Serializer round-trip property: a randomized state serializes,
 *    deserializes into a stripped twin and re-serializes to the exact
 *    same bytes; corrupt or truncated images are rejected without
 *    touching the target state.
 *  - Spill differential: runs forced through constant spill/restore
 *    cycles (a resident cap of a few state footprints) produce exactly
 *    the same per-path outcomes as the all-resident serial oracle, at
 *    1/2/4 workers, and every injected spill-I/O fault degrades the
 *    run (retry, re-pin, or a SpillFailure kill) instead of crashing
 *    or silently corrupting a path.
 *  - Merge differential: s2e_merge_point runs are deterministic
 *    across worker counts, absorb exactly the compatible siblings,
 *    preserve the union of per-path feasible values (soundness), and
 *    refuse incompatible states — in which case the run is
 *    byte-equivalent to the merge-disabled oracle.
 *  - Memory accounting: the pool-wide accounted footprint returns to
 *    0 after every run (any worker count, cap, merge or budget kill),
 *    and the serial watermark is a peak of the live set, not a sum
 *    over every state ever forked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/engine.hh"
#include "core/lifecycle/checkpoint.hh"
#include "core/lifecycle/serializer.hh"
#include "core/lifecycle/spill.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "support/differential.hh"
#include "support/rng.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"

namespace s2e::core {
namespace {

namespace fs = std::filesystem;
using difftest::differentialConfig;
using difftest::expectSamePathSets;
using difftest::memoryDigest;
using difftest::pathFingerprints;
using difftest::valueRepr;
using lifecycle::SpillFaultPolicy;
using lifecycle::StateSerializer;

vm::MachineConfig
machineFor(const std::string &source, uint32_t ram = 64 * 1024)
{
    vm::MachineConfig m;
    m.ramSize = ram;
    m.program = isa::assemble(source);
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };
    return m;
}

/**
 * Baseline footprint of an empty state on this machine: sizeof plus
 * the per-device charge, no private pages, no constraints. Resident
 * caps are expressed as small multiples of this so the governor is
 * guaranteed to trip once a handful of states are live, regardless of
 * how the accounting formula evolves.
 */
uint64_t
baseFootprint(const vm::MachineConfig &m)
{
    vm::DeviceSet devices;
    if (m.deviceSetup)
        m.deviceSetup(devices);
    ExecutionState probe(m.ramSize, devices);
    return probe.memoryFootprint();
}

/** 2^bits-path fork storm; each path grinds a tiny private loop.
 *  With merge_prologue the program first forks on three bits of r2 and
 *  folds the eight siblings into one survivor at an s2e_merge point
 *  (when merging is enabled) before the storm proper. */
std::string
stormSource(unsigned bits, unsigned work = 6, bool merge_prologue = false)
{
    std::string src = R"(
        .entry main
    main:
        movi sp, 0x8000
)";
    if (merge_prologue)
        src += R"(
        s2e_symreg r2
        movi r6, 0
        testi r2, 1
        jeq m0
        ori r6, 1
    m0: testi r2, 2
        jeq m1
        ori r6, 2
    m1: testi r2, 4
        jeq m2
        ori r6, 4
    m2: s2e_merge
)";
    src += R"(
        s2e_symreg r1
        movi r5, 0
)";
    for (unsigned b = 0; b < bits; ++b)
        src += strprintf("        testi r1, %u\n"
                         "        jeq b%u\n"
                         "        ori r5, %u\n"
                         "    b%u:\n",
                         1u << b, b, 1u << b, b);
    src += strprintf(R"(
        movi r3, 0
        movi r4, 0
    work:
        add r3, r5
        addi r4, 1
        cmpi r4, %u
        jne work
        hlt
    )",
                     work);
    return src;
}

// --- Serializer round-trip property -------------------------------------

vm::DeviceSet
consoleDevices()
{
    vm::DeviceSet set;
    set.add(std::make_unique<vm::ConsoleDevice>());
    return set;
}

TEST(SerializerRoundTrip, RandomizedStatesReserializeByteIdentically)
{
    constexpr uint32_t kRam = 32 * 1024;
    ExprBuilder builder;
    StateSerializer ser(builder);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        ExecutionState state(kRam, consoleDevices());
        state.setPathId(strprintf("0.%llu",
                                  static_cast<unsigned long long>(seed)));

        // Pre-checkpoint content (the shared baseline a spill image
        // must NOT carry).
        for (int i = 0; i < 200; ++i)
            state.mem.writeConcreteByte(
                static_cast<uint32_t>(rng.below(kRam)),
                static_cast<uint8_t>(rng.below(256)));
        lifecycle::takeCheckpoint(state);

        // Post-checkpoint delta: concrete writes, symbolic overlays,
        // registers/flags and a constraint tail.
        std::vector<ExprRef> vars;
        for (uint64_t i = 0; i < rng.below(3) + 2; ++i)
            vars.push_back(builder.var(
                strprintf("v%llu_%llu",
                          static_cast<unsigned long long>(seed),
                          static_cast<unsigned long long>(i)),
                32));
        for (int i = 0; i < 120; ++i)
            state.mem.writeConcreteByte(
                static_cast<uint32_t>(rng.below(kRam)),
                static_cast<uint8_t>(rng.below(256)));
        for (int i = 0; i < 40; ++i) {
            ExprRef byte = builder.extract(
                vars[rng.below(vars.size())],
                8 * static_cast<unsigned>(rng.below(4)), 8);
            state.mem.makeSymbolic(static_cast<uint32_t>(rng.below(kRam)),
                                   byte);
        }
        for (size_t i = 0; i < vars.size(); ++i)
            state.addConstraint(builder.ult(
                vars[i],
                builder.constant(1000 + 17 * static_cast<uint32_t>(i) +
                                     static_cast<uint32_t>(seed),
                                 32)));
        for (unsigned r = 0; r < 4; ++r)
            state.cpu.regs[r] = Value(vars[rng.below(vars.size())]);
        state.cpu.regs[7] =
            Value(static_cast<uint32_t>(rng.below(1u << 30)));
        state.cpu.pc = static_cast<uint32_t>(rng.below(1u << 16));
        state.cpu.flags[1] = Value(static_cast<uint32_t>(rng.below(2)));
        state.cpu.intEnabled = rng.chance(0.5);
        state.cpu.pendingIrqs = static_cast<uint32_t>(rng.below(8));
        state.instrCount = rng.next() % 1000000;
        state.symInstrCount = rng.next() % 10000;
        state.blockCount = rng.next() % 50000;
        state.degraded = rng.chance(0.3);

        std::vector<uint8_t> img = ser.serialize(state);
        ASSERT_TRUE(StateSerializer::validateImage(img));

        // Strip a twin down to what a spilled state keeps, restore it
        // from the image, and demand a byte-identical re-serialization
        // plus full content equality.
        auto twin = state.clone(999);
        twin->mem.dropAllPages();
        twin->constraints.clear();
        std::string err;
        ASSERT_TRUE(ser.deserialize(img, *twin, &err))
            << "seed " << seed << ": " << err;
        std::vector<uint8_t> img2 = ser.serialize(*twin);
        EXPECT_EQ(img, img2)
            << "seed " << seed << ": re-serialization not byte-identical";

        EXPECT_EQ(state.pathId(), twin->pathId());
        EXPECT_EQ(state.cpu.pc, twin->cpu.pc);
        EXPECT_EQ(state.instrCount, twin->instrCount);
        EXPECT_EQ(state.constraints.size(), twin->constraints.size());
        for (size_t i = 0; i < state.constraints.size(); ++i)
            EXPECT_EQ(state.constraints[i], twin->constraints[i])
                << "constraint " << i << " not re-interned identically";
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            EXPECT_EQ(valueRepr(state.cpu.regs[r]),
                      valueRepr(twin->cpu.regs[r]));
        EXPECT_EQ(memoryDigest(state, builder),
                  memoryDigest(*twin, builder))
            << "seed " << seed << ": memory content diverged";
    }
}

struct BlobPluginState : PluginState {
    std::vector<uint8_t> data;
    std::unique_ptr<PluginState>
    clone() const override
    {
        auto c = std::make_unique<BlobPluginState>();
        c->data = data;
        return c;
    }
};

TEST(SerializerRoundTrip, PluginCodecRoundTripsRegisteredState)
{
    static const int key_token = 0;
    ExprBuilder builder;
    StateSerializer ser(builder);
    lifecycle::PluginCodec codec;
    codec.name = "blob";
    codec.encode = [](const PluginState &ps) {
        return static_cast<const BlobPluginState &>(ps).data;
    };
    codec.decode = [](const std::vector<uint8_t> &bytes) {
        auto ps = std::make_unique<BlobPluginState>();
        ps->data = bytes;
        return std::unique_ptr<PluginState>(std::move(ps));
    };
    ser.registerPluginCodec(&key_token, codec);

    ExecutionState state(4096, consoleDevices());
    lifecycle::takeCheckpoint(state);
    state.pluginState<BlobPluginState>(&key_token)->data = {1, 2, 3, 42};
    std::vector<uint8_t> img = ser.serialize(state);

    auto twin = state.clone(1);
    static_cast<BlobPluginState *>(twin->findPluginState(&key_token))
        ->data = {9}; // clobber; deserialize must restore the original
    std::string err;
    ASSERT_TRUE(ser.deserialize(img, *twin, &err)) << err;
    auto *restored = static_cast<BlobPluginState *>(
        twin->findPluginState(&key_token));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->data, (std::vector<uint8_t>{1, 2, 3, 42}));
    EXPECT_EQ(ser.serialize(*twin), img);
}

TEST(SerializerRoundTrip, CorruptImagesAreRejectedNotApplied)
{
    ExprBuilder builder;
    StateSerializer ser(builder);
    ExecutionState state(4096, consoleDevices());
    for (uint32_t a = 0; a < 64; ++a)
        state.mem.writeConcreteByte(a, static_cast<uint8_t>(a * 7));
    lifecycle::takeCheckpoint(state);
    state.mem.writeConcreteByte(100, 0xAB);
    ExprRef v = builder.var("cx", 32);
    state.mem.makeSymbolic(101, builder.extract(v, 0, 8));
    state.addConstraint(builder.ult(v, builder.constant(10, 32)));
    state.cpu.regs[0] = Value(v);
    std::vector<uint8_t> img = ser.serialize(state);
    ASSERT_TRUE(StateSerializer::validateImage(img));

    // Flip one byte at a sweep of offsets: header, expr table, CPU,
    // memory delta, tail. Every mutation must fail validation or
    // deserialization — never crash, never half-apply.
    for (size_t off = 0; off < img.size();
         off += std::max<size_t>(1, img.size() / 64)) {
        std::vector<uint8_t> bad = img;
        bad[off] ^= 0x40;
        auto twin = state.clone(2);
        std::string before = valueRepr(twin->cpu.regs[0]);
        std::string err;
        bool ok = StateSerializer::validateImage(bad) &&
                  ser.deserialize(bad, *twin, &err);
        EXPECT_FALSE(ok) << "corruption at offset " << off
                         << " was accepted";
        EXPECT_EQ(before, valueRepr(twin->cpu.regs[0]))
            << "offset " << off << ": failed restore touched the state";
    }

    // Truncations at every section boundary granularity.
    for (size_t len : {size_t(0), size_t(8), size_t(31), img.size() / 2,
                       img.size() - 1}) {
        std::vector<uint8_t> bad(img.begin(),
                                 img.begin() +
                                     static_cast<ptrdiff_t>(len));
        std::string err;
        EXPECT_FALSE(StateSerializer::validateImage(bad, &err))
            << "truncated image (len " << len << ") passed validation";
    }

    // The pristine image still restores fine afterwards.
    auto twin = state.clone(3);
    twin->mem.dropAllPages();
    twin->constraints.clear();
    std::string err;
    EXPECT_TRUE(ser.deserialize(img, *twin, &err)) << err;
}

// --- Spill differential: resumed paths == never-spilled twins -----------

std::map<std::string, std::string>
runStorm(unsigned bits, EngineConfig config, RunResult *result = nullptr)
{
    Engine engine(machineFor(stormSource(bits)), config);
    RunResult r = engine.run();
    if (result)
        *result = r;
    return pathFingerprints(engine);
}

/** Resident cap tight enough that a storm's live set must spill. */
uint64_t
stormCap()
{
    return 3 * baseFootprint(machineFor(stormSource(1)));
}

TEST(SpillDifferential, ForkStormMatchesAllResidentOracle)
{
    auto oracle = runStorm(9, differentialConfig(1));
    ASSERT_EQ(oracle.size(), 512u);
    for (unsigned workers : {1u, 2u, 4u}) {
        EngineConfig config = differentialConfig(workers);
        config.maxResidentBytes = stormCap();
        RunResult r;
        auto capped = runStorm(9, config, &r);
        EXPECT_GT(r.statesSpilled, 0u)
            << workers << " workers: cap never forced a spill";
        EXPECT_GT(r.statesRestored, 0u);
        EXPECT_EQ(r.spillFailures, 0u);
        EXPECT_GT(r.spillBytes, 0u);
        EXPECT_GT(r.residentStatesPeak, 0u);
        expectSamePathSets(oracle, capped,
                           strprintf("spill@%u workers", workers));
    }
}

TEST(SpillDifferential, LicenseCheckMatchesAllResidentOracle)
{
    // Kernel workload with symbolic memory: spill images carry real
    // symbolic overlays, console transcripts and timer state.
    auto license_machine = [] {
        vm::MachineConfig m;
        m.ramSize = guest::kRamSize;
        m.program = isa::assemble(guest::kernelSource() +
                                  guest::licenseCheckSource());
        m.deviceSetup = [](vm::DeviceSet &devices) {
            devices.add(std::make_unique<vm::ConsoleDevice>());
            devices.add(std::make_unique<vm::TimerDevice>());
            devices.add(std::make_unique<vm::DmaNic>());
        };
        return m;
    };
    auto run_license = [&](EngineConfig config, RunResult *result) {
        Engine engine(license_machine(), config);
        auto &state = engine.initialState();
        uint32_t key_addr = guest::addConfigString(
            state, engine.builder(), 0, "AAAAAAAA");
        guest::setConfig(state, engine.builder(), guest::kCfgLicensePtr,
                         key_addr);
        engine.makeMemSymbolic(state, key_addr, guest::kLicenseKeyLen,
                               "license");
        RunResult r = engine.run();
        if (result)
            *result = r;
        return pathFingerprints(engine);
    };
    auto oracle = run_license(differentialConfig(1), nullptr);
    EXPECT_GT(oracle.size(), 4u);
    for (unsigned workers : {1u, 2u, 4u}) {
        EngineConfig config = differentialConfig(workers);
        config.maxResidentBytes = 3 * baseFootprint(license_machine());
        RunResult r;
        auto capped = run_license(config, &r);
        EXPECT_GT(r.statesSpilled, 0u);
        EXPECT_EQ(r.spillFailures, 0u);
        expectSamePathSets(oracle, capped,
                           strprintf("license spill@%u workers",
                                     workers));
    }
}

// --- Spill fault injection ----------------------------------------------

TEST(SpillFaults, TransientWriteAndReadFaultsAreAbsorbedByRetry)
{
    auto oracle = runStorm(7, differentialConfig(1));
    ASSERT_EQ(oracle.size(), 128u);
    for (SpillFaultPolicy::Kind kind : {SpillFaultPolicy::Kind::ShortWrite,
                                        SpillFaultPolicy::Kind::Enospc,
                                        SpillFaultPolicy::Kind::ShortRead}) {
        EngineConfig config = differentialConfig(1);
        config.maxResidentBytes = stormCap();
        config.spillFaults.enabled = true;
        config.spillFaults.faultRate = 1.0; // every op, first attempt
        config.spillFaults.kind = kind;
        config.spillFaults.persistent = false;
        RunResult r;
        auto run = runStorm(7, config, &r);
        EXPECT_GT(r.statesSpilled, 0u)
            << "kind " << static_cast<int>(kind);
        EXPECT_GT(r.spillRetries, 0u)
            << "kind " << static_cast<int>(kind)
            << ": retry wrapper never engaged";
        EXPECT_EQ(r.spillFailures, 0u)
            << "kind " << static_cast<int>(kind)
            << ": transient fault escalated to a kill";
        expectSamePathSets(oracle, run,
                           strprintf("transient fault kind %d",
                                     static_cast<int>(kind)));
    }
}

TEST(SpillFaults, PersistentWriteFailureRePinsStatesInMemory)
{
    auto oracle = runStorm(7, differentialConfig(1));
    for (SpillFaultPolicy::Kind kind : {SpillFaultPolicy::Kind::ShortWrite,
                                        SpillFaultPolicy::Kind::Enospc}) {
        EngineConfig config = differentialConfig(1);
        config.maxResidentBytes = stormCap();
        config.spillFaults.enabled = true;
        config.spillFaults.faultRate = 1.0;
        config.spillFaults.kind = kind;
        config.spillFaults.persistent = true;
        RunResult r;
        auto run = runStorm(7, config, &r);
        // Every write fails beyond retries: states are re-pinned and
        // the run completes all-resident — degraded, not wrong.
        EXPECT_EQ(r.statesSpilled, 0u);
        EXPECT_EQ(r.spillFailures, 0u);
        EXPECT_GT(r.spillRetries, 0u);
        expectSamePathSets(oracle, run,
                           strprintf("persistent write fault kind %d",
                                     static_cast<int>(kind)));
    }
}

TEST(SpillFaults, UnrecoverableRestoreFailuresKillCleanly)
{
    // Persistent short reads and (latent) corrupt headers make every
    // restore impossible. Affected paths must terminate with
    // SpillFailure — distinct status, accounted in the result, zero
    // crashes — while never-spilled paths complete normally.
    for (SpillFaultPolicy::Kind kind :
         {SpillFaultPolicy::Kind::ShortRead,
          SpillFaultPolicy::Kind::CorruptHeader}) {
        EngineConfig config = differentialConfig(1);
        config.maxResidentBytes = stormCap();
        config.spillFaults.enabled = true;
        config.spillFaults.faultRate = 1.0;
        config.spillFaults.kind = kind;
        config.spillFaults.persistent =
            kind == SpillFaultPolicy::Kind::ShortRead;
        RunResult r;
        runStorm(7, config, &r);
        EXPECT_GT(r.statesSpilled, 0u);
        EXPECT_GT(r.spillFailures, 0u)
            << "kind " << static_cast<int>(kind);
        // Every path reached a terminal status; nothing leaked or
        // wedged.
        EXPECT_EQ(r.completed + r.spillFailures + r.crashed + r.aborted,
                  r.statesCreated)
            << "kind " << static_cast<int>(kind);
    }
}

TEST(SpillFaults, ParallelRestoreFailureIsRaceFree)
{
    // The SpillFailure kill path under the worker pool (tsan gate).
    EngineConfig config = differentialConfig(4);
    config.maxResidentBytes = stormCap();
    config.spillFaults.enabled = true;
    config.spillFaults.faultRate = 1.0;
    config.spillFaults.kind = SpillFaultPolicy::Kind::ShortRead;
    config.spillFaults.persistent = true;
    RunResult r;
    runStorm(7, config, &r);
    EXPECT_EQ(r.completed + r.spillFailures + r.crashed + r.aborted,
              r.statesCreated);
}

// --- s2e_merge_point merging --------------------------------------------

/** 8 paths diverging in r5/flags only, all meeting at one merge
 *  point, then a shared post-merge loop. With merging enabled all 8
 *  coalesce into one survivor. */
std::string
mergeSource(bool diverge_console = false)
{
    std::string pre_merge = diverge_console ? R"(
        addi r5, 65
        out 0x10, r5     ; per-path console byte: digests diverge
        subi r5, 65
)"
                                            : "";
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq m1
        ori r5, 1
    m1: testi r1, 2
        jeq m2
        ori r5, 2
    m2: testi r1, 4
        jeq m3
        ori r5, 4
    m3:
)" + pre_merge + R"(
        s2e_merge
        movi r10, 5
    post:
        add r6, r5
        subi r10, 1
        cmpi r10, 0
        jne post
        hlt
    )";
}

TEST(MergePoints, OpcodeIsNoOpWhenDisabled)
{
    Engine engine(machineFor(mergeSource()), differentialConfig(1));
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 8u);
    EXPECT_EQ(r.completed, 8u);
    EXPECT_EQ(r.mergedStates, 0u);
}

TEST(MergePoints, CompatibleSiblingsCoalesceIntoOneSurvivor)
{
    EngineConfig config = differentialConfig(1);
    config.enableMergePoints = true;
    Engine engine(machineFor(mergeSource()), config);
    size_t merge_events = 0;
    engine.events().onStateMerge.subscribe(
        [&](const MergeInfo &info) {
            merge_events++;
            EXPECT_NE(info.survivor, info.absorbed);
        });
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 8u);
    EXPECT_EQ(r.mergedStates, 7u);
    EXPECT_EQ(merge_events, 7u);
    EXPECT_EQ(r.completed, 1u);

    // Soundness: the survivor's constraints + ITE'd r5 preserve the
    // union of per-path values — every pre-merge value 0..7 is still
    // feasible, anything else is not.
    const ExecutionState *survivor = nullptr;
    for (const auto &s : engine.allStates())
        if (s->status == StateStatus::Halted)
            survivor = s.get();
    ASSERT_NE(survivor, nullptr);
    EXPECT_EQ(survivor->mergedSiblings, 7u);
    ExprBuilder &b = engine.builder();
    ExprRef r5 = survivor->cpu.regs[5].toExpr(b);
    solver::Solver solver(b, config.solverOptions);
    for (uint32_t value = 0; value < 8; ++value) {
        auto feasible = solver.mayBeTrue(
            survivor->constraints, b.eq(r5, b.constant(value, 32)));
        EXPECT_TRUE(feasible.yes())
            << "pre-merge value " << value << " lost by the merge";
    }
    auto impossible = solver.mayBeTrue(survivor->constraints,
                                       b.eq(r5, b.constant(8, 32)));
    EXPECT_TRUE(impossible.no())
        << "merge invented an infeasible value";
}

TEST(MergePoints, MergedRunsAreDeterministicAcrossWorkerCounts)
{
    auto run_merged = [](unsigned workers, uint64_t cap) {
        EngineConfig config = differentialConfig(workers);
        config.enableMergePoints = true;
        config.maxResidentBytes = cap;
        Engine engine(machineFor(mergeSource()), config);
        engine.run();
        return pathFingerprints(engine);
    };
    // All-resident serial oracle, then spill+merge at 1/2/4 workers:
    // identical per-path outcomes (absorbed states keep their
    // pre-merge fingerprint; the survivor's ITE values fold in a
    // deterministic order).
    auto oracle = run_merged(1, 0);
    ASSERT_EQ(oracle.size(), 8u);
    for (unsigned workers : {1u, 2u, 4u})
        expectSamePathSets(oracle, run_merged(workers, stormCap()),
                           strprintf("merge@%u workers", workers));
}

TEST(MergePoints, IncompatibleStatesRefuseAndMatchDisabledOracle)
{
    // Diverging console transcripts (device digest mismatch): nothing
    // merges and the run is equivalent to the merge-disabled oracle.
    Engine oracle_engine(machineFor(mergeSource(true)),
                         differentialConfig(1));
    oracle_engine.run();
    auto oracle = pathFingerprints(oracle_engine);
    ASSERT_EQ(oracle.size(), 8u);

    for (unsigned workers : {1u, 2u}) {
        EngineConfig config = differentialConfig(workers);
        config.enableMergePoints = true;
        Engine engine(machineFor(mergeSource(true)), config);
        RunResult r = engine.run();
        EXPECT_EQ(r.mergedStates, 0u);
        EXPECT_EQ(r.completed, 8u);
        expectSamePathSets(oracle, pathFingerprints(engine),
                           strprintf("refused merge@%u workers",
                                     workers));
    }
}

// --- Fork-storm soak -----------------------------------------------------

TEST(LifecycleSoak, FourThousandPathStormStaysUnderResidentCap)
{
    // 2^12 = 4096 paths under a resident cap of ~3 states with the
    // worker pool: the governor must keep spilling cold states while
    // the storm forks, and every path must still complete.
    EngineConfig config = differentialConfig(4);
    config.maxResidentBytes = stormCap();
    RunResult r;
    runStorm(12, config, &r);
    EXPECT_EQ(r.statesCreated, 4096u);
    EXPECT_EQ(r.completed, 4096u);
    EXPECT_EQ(r.spillFailures, 0u);
    EXPECT_GT(r.statesSpilled, 0u);
    EXPECT_GT(r.statesRestored, 0u);
    EXPECT_GT(r.residentStatesPeak, 0u);
}

// --- Incremental memory accounting ---------------------------------------

TEST(MemoryAccounting, TotalBalancesToZeroAfterRun)
{
    // Every footprint a state publishes is withdrawn when it retires,
    // whichever loop ran it, whether it was spilled, and whether it
    // ended by halting or by being absorbed at a merge point.
    for (bool merge : {false, true})
        for (unsigned workers : {1u, 2u, 4u})
            for (uint64_t cap : {uint64_t(0), stormCap()}) {
                std::string what =
                    strprintf("merge=%d workers=%u cap=%llu", merge,
                              workers, static_cast<unsigned long long>(cap));
                EngineConfig config = differentialConfig(workers);
                config.maxResidentBytes = cap;
                config.enableMergePoints = merge;
                Engine engine(machineFor(stormSource(6, 6, true)), config);
                RunResult r = engine.run();
                EXPECT_EQ(r.completed, merge ? 64u : 64u * 8) << what;
                EXPECT_EQ(r.mergedStates, merge ? 7u : 0u) << what;
                EXPECT_GT(engine.stats().get("engine.memory_high_watermark"),
                          0u)
                    << what;
                EXPECT_EQ(engine.accountedMemBytes(), 0u) << what;
            }
}

TEST(MemoryAccounting, BudgetKilledRunsBalanceToo)
{
    // Budgets that trip mid-prologue (with siblings parked at the merge
    // point) and mid-storm (after the merge): states killed in the
    // active set and in the merge pool must each withdraw their share.
    for (uint64_t budget : {25u, 60u})
        for (unsigned workers : {1u, 4u})
            for (uint64_t cap : {uint64_t(0), stormCap()}) {
                std::string what = strprintf(
                    "budget=%llu workers=%u cap=%llu",
                    static_cast<unsigned long long>(budget), workers,
                    static_cast<unsigned long long>(cap));
                EngineConfig config = differentialConfig(workers);
                config.enableMergePoints = true;
                config.maxResidentBytes = cap;
                config.maxInstructions = budget;
                Engine engine(machineFor(stormSource(6, 6, true)), config);
                RunResult r = engine.run();
                EXPECT_TRUE(r.budgetExhausted) << what;
                EXPECT_EQ(engine.accountedMemBytes(), 0u) << what;
            }
}

TEST(MemoryAccounting, SerialWatermarkIsAPeakNotACumulativeSum)
{
    // Depth-first at one worker keeps only the fork frontier live, so
    // the watermark is bounded by the largest live set times the
    // largest single footprint (+1: parent and child are both counted
    // at the fork instant) — not the sum over all 512 paths.
    Engine engine(machineFor(stormSource(9)), differentialConfig(1));
    uint64_t largest = 0;
    auto note = [&largest](const ExecutionState &s) {
        largest = std::max(largest, s.memoryFootprint());
    };
    engine.events().onExecutionFork.subscribe([&](const ForkInfo &info) {
        note(*info.parent);
        note(*info.child);
    });
    engine.events().onStateKill.subscribe(
        [&](ExecutionState &s) { note(s); });
    RunResult r = engine.run();
    ASSERT_EQ(r.completed, 512u);
    uint64_t watermark = engine.stats().get("engine.memory_high_watermark");
    uint64_t max_active = engine.stats().get("engine.max_active_states");
    EXPECT_GE(watermark, largest);
    EXPECT_LE(watermark, (max_active + 1) * largest)
        << "max_active_states " << max_active << ", largest footprint "
        << largest;
    EXPECT_EQ(engine.accountedMemBytes(), 0u);
}

// --- Terminal resource release ------------------------------------------

TEST(LifecycleRobustness, SpillImagesReleasedOnceAndDirRemoved)
{
    // Trip a budget mid-storm so some states die *while spilled*: the
    // kill path must release each spill image exactly once (ASan
    // would catch a double release of the solver context; the
    // directory check catches leaked images).
    std::string dir =
        (fs::temp_directory_path() /
         strprintf("s2e-lifecycle-test-%ld", static_cast<long>(getpid())))
            .string();
    for (unsigned workers : {1u, 4u}) {
        fs::remove_all(dir);
        {
            EngineConfig config;
            config.numWorkers = workers;
            config.solverOptions.useModelCache = false;
            config.maxResidentBytes = stormCap();
            config.spillDir = dir;
            config.maxInstructions = 4000;
            Engine engine(machineFor(stormSource(9, 40)), config);
            RunResult r = engine.run();
            EXPECT_TRUE(r.budgetExhausted);
            EXPECT_GT(r.statesSpilled, 0u)
                << workers << " workers: no spills before the budget";
        }
        EXPECT_FALSE(fs::exists(dir))
            << workers
            << " workers: spill directory leaked past the engine";
    }
}

} // namespace
} // namespace s2e::core
