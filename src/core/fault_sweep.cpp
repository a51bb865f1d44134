#include "core/fault_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "os/layout.hpp"
#include "statecont/protocol.hpp"

namespace swsec::core {

namespace {

// --- exploit-mitigation half -------------------------------------------------

/// Deterministic per-window seed: same options => same fault, bit for bit.
std::uint64_t window_seed(std::uint64_t base, std::size_t attack, std::size_t defense,
                          std::size_t cls, int window) {
    std::uint64_t s = base;
    for (const std::uint64_t v : {static_cast<std::uint64_t>(attack),
                                  static_cast<std::uint64_t>(defense),
                                  static_cast<std::uint64_t>(cls),
                                  static_cast<std::uint64_t>(window)}) {
        s = (s ^ (v + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
    }
    return s;
}

/// Draw one fault of class `cls` somewhere inside the baseline run.
/// `horizon` is the instruction count of the healthy run, so machine faults
/// always land in the window where the victim is actually executing.
fault::FaultEvent draw_event(Rng& rng, fault::FaultClass cls, std::uint64_t horizon) {
    const std::uint64_t step = rng.next_u64() % std::max<std::uint64_t>(horizon, 1);
    switch (cls) {
    case fault::FaultClass::PowerCut:
        return fault::FaultEvent::power_cut(step);
    case fault::FaultClass::RegBitFlip:
        return fault::FaultEvent::reg_bit_flip(step, rng.below(10), rng.below(32));
    case fault::FaultClass::MemBitFlip: {
        // Aim at the regions where the countermeasure state lives: the
        // stack (canaries, return addresses), the data segment (flags,
        // function-pointer tables) and the text segment.  Under ASLR the
        // victim's segments move, so some flips hit unmapped space — those
        // are harmless no-ops, exactly as on real hardware.
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        switch (rng.below(3)) {
        case 0:
            lo = os::kDefaultStackTop - os::kDefaultStackSize;
            hi = os::kDefaultStackTop;
            break;
        case 1:
            lo = os::kDefaultDataBase;
            hi = os::kDefaultDataBase + 0x1000;
            break;
        default:
            lo = os::kDefaultTextBase;
            hi = os::kDefaultTextBase + 0x1000;
            break;
        }
        const std::uint32_t addr = lo + rng.below(hi - lo);
        return fault::FaultEvent::mem_bit_flip(step, addr, rng.below(8));
    }
    case fault::FaultClass::SyscallFail:
        // Sometimes within the default retry budget (rides it out), sometimes
        // beyond it (the program sees the error) — both must stay blocked.
        return fault::FaultEvent::syscall_fail(1 + rng.below(4), 1 + rng.below(6));
    case fault::FaultClass::ShortRead:
        return fault::FaultEvent::short_read(1 + rng.below(3), rng.below(8));
    case fault::FaultClass::NvPowerCut:
        return fault::FaultEvent::nv_power_cut(1 + rng.below(8));
    case fault::FaultClass::NvTornWrite:
        return fault::FaultEvent::nv_torn_write(1 + rng.below(8), rng.below(64));
    }
    return fault::FaultEvent::power_cut(step);
}

// --- state-continuity half ---------------------------------------------------

using statecont::Blob;
using statecont::LoadStatus;
using statecont::NvStore;
using statecont::PowerCut;
using statecont::StateProtocol;

crypto::Key sweep_key() {
    crypto::Key k{};
    for (std::size_t i = 0; i < k.size(); ++i) {
        k[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    return k;
}

Blob make_state(std::uint8_t tag, int n) {
    Blob b(static_cast<std::size_t>(std::max(n, 1)));
    for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<std::uint8_t>(tag + i * 13);
    }
    return b;
}

std::unique_ptr<StateProtocol> make_protocol(int which, NvStore& nv, std::uint64_t nonce_seed) {
    switch (which) {
    case 0:
        return std::make_unique<statecont::NaiveSealedState>(sweep_key(), nv, nonce_seed);
    case 1:
        return std::make_unique<statecont::CounterState>(sweep_key(), nv, nonce_seed);
    default:
        return std::make_unique<statecont::GuardedState>(sweep_key(), nv, nonce_seed);
    }
}

struct NvSnapshot {
    std::map<int, Blob> slots;
};

NvSnapshot snapshot_slots(const NvStore& nv) {
    NvSnapshot s;
    for (const int slot : {0, 1, 2, 3, 4, 5}) {
        if (const auto b = nv.attacker_read(slot)) {
            s.slots[slot] = *b;
        }
    }
    return s;
}

void restore_slots(NvStore& nv, const NvSnapshot& s) {
    for (const auto& [slot, blob] : s.slots) {
        nv.attacker_write(slot, blob);
    }
}

/// Run one crash/torn-write window against protocol `which` and append any
/// liveness or rollback break to `out`.
void run_statecont_window(int which, const fault::FaultEvent& event, int state_bytes,
                          StatecontSweep& out) {
    const Blob committed = make_state('C', state_bytes);
    const Blob in_flight = make_state('F', state_bytes);
    const Blob recovered_state = make_state('R', state_bytes);

    NvStore nv;
    fault::FaultInjector inj{fault::FaultPlan().add(event)};
    const auto describe = [&](const char* what, const statecont::LoadResult& r) {
        std::ostringstream os;
        os << make_protocol(which, nv, 0)->name() << " under " << event.to_string() << ": " << what
           << " (load status " << static_cast<int>(r.status) << ")";
        return os.str();
    };

    ++out.windows;
    {
        auto p = make_protocol(which, nv, /*nonce_seed=*/101);
        p->save(committed);
        nv.set_fault_injector(&inj);
        try {
            p->save(in_flight);
        } catch (const PowerCut&) {
            ++out.crashes;
        }
        nv.set_fault_injector(nullptr);
    }

    // Liveness: a fresh instance must recover an accepted state...
    auto recovered = make_protocol(which, nv, /*nonce_seed=*/202);
    const auto r = recovered->load();
    if (r.status != LoadStatus::Ok || (r.state != committed && r.state != in_flight)) {
        out.violations.push_back(describe("liveness lost: no accepted state after crash", r));
        return;
    }
    // ...and still make progress.
    recovered->save(recovered_state);
    const auto r2 = recovered->load();
    if (r2.status != LoadStatus::Ok || r2.state != recovered_state) {
        out.violations.push_back(describe("stuck after recovery: save/load no longer works", r2));
        return;
    }

    // Rollback protection must survive the crash (the naive protocol is the
    // paper's broken baseline and is checked for liveness only).
    if (which != 0) {
        const NvSnapshot stale = snapshot_slots(nv);
        recovered->save(make_state('N', state_bytes));
        recovered->save(make_state('M', state_bytes));
        restore_slots(nv, stale);
        auto replayed = make_protocol(which, nv, /*nonce_seed=*/303);
        const auto r3 = replayed->load();
        if (r3.status == LoadStatus::Ok && r3.state == recovered_state) {
            out.violations.push_back(
                describe("rollback protection lost: stale state accepted after crash", r3));
        }
    }
}

/// One planned crash/torn-write window: the unit of statecont parallelism.
struct StatecontWindow {
    int which = 0; // protocol index
    fault::FaultEvent event;
};

/// Plan every window of the exhaustive sweep, protocol-major, in exactly the
/// order the serial loops used to visit them.  Planning only traces three
/// healthy save pairs (no windows run), so it is cheap enough to do up
/// front; the payoff is a flat window list the work-stealing engine can
/// balance at single-window granularity instead of three protocol-sized
/// shards.
std::vector<StatecontWindow> plan_statecont_windows(int state_bytes) {
    std::vector<StatecontWindow> plan;
    for (int which = 0; which < 3; ++which) {
        // Trace a healthy committed+in-flight pair of saves to learn every
        // device-op window and every blob write of the second save.
        std::uint64_t k0 = 0;
        std::uint64_t k1 = 0;
        fault::FaultInjector tracer;
        tracer.set_nv_trace(true);
        {
            NvStore nv;
            nv.set_fault_injector(&tracer);
            auto p = make_protocol(which, nv, /*nonce_seed=*/101);
            p->save(make_state('C', state_bytes));
            k0 = nv.ops_performed();
            p->save(make_state('F', state_bytes));
            k1 = nv.ops_performed();
            nv.set_fault_injector(nullptr);
        }

        // Exhaustive: cut power before/after every device op of the save...
        for (std::uint64_t op = k0 + 1; op <= k1; ++op) {
            plan.push_back({which, fault::FaultEvent::nv_power_cut(op)});
        }
        // ...and tear every blob write of the save at every byte prefix.
        for (const auto& rec : tracer.nv_trace()) {
            if (!rec.is_write || rec.ordinal <= k0 || rec.ordinal > k1) {
                continue;
            }
            for (std::uint32_t keep = 0; keep <= rec.write_size; ++keep) {
                plan.push_back({which, fault::FaultEvent::nv_torn_write(rec.ordinal, keep)});
            }
        }
    }
    return plan;
}

/// Fold per-window results back into one sweep, in plan order — which is
/// the serial visiting order, so the merged report is byte-identical for
/// any jobs value.
StatecontSweep merge_statecont_windows(std::vector<StatecontSweep>& parts) {
    StatecontSweep out;
    for (auto& p : parts) {
        out.windows += p.windows;
        out.crashes += p.crashes;
        out.violations.insert(out.violations.end(),
                              std::make_move_iterator(p.violations.begin()),
                              std::make_move_iterator(p.violations.end()));
    }
    return out;
}

} // namespace

StatecontSweep run_statecont_fault_sweep(int state_bytes, int jobs) {
    const auto plan = plan_statecont_windows(state_bytes);
    std::vector<StatecontSweep> parts(plan.size());
    parallel_for(plan.size(), jobs, [&](std::size_t i) {
        run_statecont_window(plan[i].which, plan[i].event, state_bytes, parts[i]);
    });
    return merge_statecont_windows(parts);
}

std::string FailOpenViolation::to_string() const {
    return attack + " vs " + defense + " under " + event.to_string() +
           " flipped to SUCCESS: " + note;
}

std::uint64_t FaultSweepReport::total_windows() const noexcept {
    std::uint64_t n = statecont.windows;
    for (const auto& t : tallies) {
        n += t.windows;
    }
    return n;
}

namespace {

/// Is the baseline block a *detection* check whose inputs live in guest
/// code or guest state?  Canary compares, bounds checks, fortified reads
/// and the address sanitizer's probes (compiled shadow checks, and kernel
/// interceptors that judge whatever pointer/length the glitched program
/// hands them) detect memory-safety violations; they do not protect the
/// program's own state from an induced fault, so a single register flip
/// can jump past or around them — the paper's fault-attacker result.
/// Everything else (DEP permissions, shadow stack, CFI, the memcheck
/// poison map the machine consults on every access) is enforced outside
/// the glitched machine and stays under the hard fail-closed invariant.
bool compiled_check(trace::CheckOrigin origin) {
    switch (origin) {
    case trace::CheckOrigin::Canary:
    case trace::CheckOrigin::Bounds:
    case trace::CheckOrigin::Fortify:
    case trace::CheckOrigin::AddressSanitizer:
        return true;
    default:
        return false;
    }
}

FaultCellSweep sweep_cell(const FaultSweepOptions& opts, std::size_t ai, std::size_t di,
                          AttackKind kind, const Defense& defense) {
    FaultCellSweep cell;
    cell.tallies.reserve(opts.classes.size());
    for (const auto cls : opts.classes) {
        cell.tallies.push_back(ClassTally{cls});
    }

    const AttackOutcome baseline =
        run_attack(kind, defense, opts.victim_seed, opts.attacker_seed);
    cell.record = MatrixCell{kind, defense.name, baseline};
    if (baseline.succeeded) {
        // The attack wins on a healthy platform: a fault cannot make
        // that cell any worse, so the sweep has nothing to assert.
        cell.baseline_success = true;
        return cell;
    }
    const std::uint64_t horizon = std::max<std::uint64_t>(baseline.steps, 1);

    for (std::size_t ci = 0; ci < opts.classes.size(); ++ci) {
        ClassTally& tally = cell.tallies[ci];
        for (int w = 0; w < opts.windows_per_class; ++w) {
            Rng rng(window_seed(opts.fault_seed, ai, di, ci, w));
            const fault::FaultEvent event = draw_event(rng, opts.classes[ci], horizon);
            fault::FaultInjector inj{fault::FaultPlan().add(event)};
            AttackOutcome out;
            try {
                out = run_attack(kind, defense, opts.victim_seed, opts.attacker_seed, &inj);
            } catch (const Error& e) {
                // The attacker's own interaction can abort: addresses
                // computed from glitched victim state (a corrupted
                // leak, a flipped stack pointer) may point at
                // unmapped memory.  An aborted exploitation attempt
                // is fail-closed — the attack did not succeed.
                out.succeeded = false;
                out.note = std::string("attacker interaction aborted: ") + e.what();
            }
            ++tally.windows;
            if (out.succeeded) {
                if (compiled_check(baseline.trap.origin)) {
                    ++tally.glitched_check;
                    cell.glitched.push_back({attack_name(kind), defense.name, event, out.note});
                } else {
                    ++tally.fail_open;
                    cell.violations.push_back(
                        {attack_name(kind), defense.name, event, out.note});
                }
            } else {
                ++tally.still_blocked;
                if (out.trap.kind == vm::TrapKind::PowerCut) {
                    ++tally.power_cut;
                }
            }
        }
    }
    return cell;
}

} // namespace

FaultCellSweep sweep_fault_cell(const FaultSweepOptions& opts, std::size_t ai, std::size_t di) {
    const auto& attacks = opts.attacks.empty() ? all_attacks() : opts.attacks;
    const auto& defenses = opts.defenses.empty() ? standard_defenses() : opts.defenses;
    return sweep_cell(opts, ai, di, attacks.at(ai), defenses.at(di));
}

FaultSweepReport run_fault_sweep(const FaultSweepOptions& opts) {
    FaultSweepReport rep;
    const auto& attacks = opts.attacks.empty() ? all_attacks() : opts.attacks;
    const auto& defenses = opts.defenses.empty() ? standard_defenses() : opts.defenses;

    rep.tallies.reserve(opts.classes.size());
    for (const auto cls : opts.classes) {
        rep.tallies.push_back(ClassTally{cls});
    }

    // Both halves share one flat work domain: the attack x defense cells
    // first, then every planned statecont window.  Each task is
    // share-nothing (its own Machines / NvStore, seeds derived from the
    // task index) and lands in its own slot, so the work-stealing engine
    // can interleave the halves freely — the old two-phase layout ran the
    // statecont half 3-way parallel at best, which capped BM_FullSweep
    // scaling well below the job count.
    std::vector<FaultCellSweep> cells(attacks.size() * defenses.size());
    const auto statecont_plan = opts.include_statecont
                                    ? plan_statecont_windows(opts.statecont_state_bytes)
                                    : std::vector<StatecontWindow>{};
    std::vector<StatecontSweep> statecont_parts(statecont_plan.size());
    parallel_for(cells.size() + statecont_plan.size(), opts.jobs, [&](std::size_t i) {
        if (i < cells.size()) {
            const std::size_t ai = i / defenses.size();
            const std::size_t di = i % defenses.size();
            cells[i] = sweep_cell(opts, ai, di, attacks[ai], defenses[di]);
        } else {
            const auto& w = statecont_plan[i - cells.size()];
            run_statecont_window(w.which, w.event, opts.statecont_state_bytes,
                                 statecont_parts[i - cells.size()]);
        }
    });

    // Deterministic merge: fold cells in index order, which is exactly the
    // order the old serial loops visited them.
    rep.baseline_cells.reserve(cells.size());
    for (auto& cell : cells) {
        ++rep.cells;
        rep.baseline_cells.push_back(std::move(cell.record));
        if (cell.baseline_success) {
            ++rep.baseline_success;
            continue;
        }
        ++rep.baseline_blocked;
        for (std::size_t ci = 0; ci < rep.tallies.size(); ++ci) {
            ClassTally& t = rep.tallies[ci];
            const ClassTally& c = cell.tallies[ci];
            t.windows += c.windows;
            t.power_cut += c.power_cut;
            t.still_blocked += c.still_blocked;
            t.fail_open += c.fail_open;
            t.glitched_check += c.glitched_check;
        }
        rep.violations.insert(rep.violations.end(),
                              std::make_move_iterator(cell.violations.begin()),
                              std::make_move_iterator(cell.violations.end()));
        rep.glitched.insert(rep.glitched.end(),
                            std::make_move_iterator(cell.glitched.begin()),
                            std::make_move_iterator(cell.glitched.end()));
    }

    if (opts.include_statecont) {
        rep.statecont = merge_statecont_windows(statecont_parts);
    }
    return rep;
}

std::string FaultSweepReport::summary() const {
    std::ostringstream os;
    os << "fault sweep: " << cells << " matrix cells, " << baseline_blocked
       << " blocked on the healthy platform (" << baseline_success
       << " attacker wins skipped)\n\n";
    os << "  fault class    windows  power-cut  still blocked  fail-open  glitched-check\n";
    for (const auto& t : tallies) {
        char line[128];
        std::snprintf(line, sizeof(line), "  %-12s %9llu %10llu %14llu %10llu %15llu\n",
                      fault::fault_class_name(t.cls),
                      static_cast<unsigned long long>(t.windows),
                      static_cast<unsigned long long>(t.power_cut),
                      static_cast<unsigned long long>(t.still_blocked),
                      static_cast<unsigned long long>(t.fail_open),
                      static_cast<unsigned long long>(t.glitched_check));
        os << line;
    }
    os << "\nstate continuity: " << statecont.windows << " crash/torn-write windows ("
       << statecont.crashes << " landed), " << statecont.violations.size() << " violations\n";
    for (const auto& v : violations) {
        os << "\nFAIL-OPEN: " << v.to_string() << "\n";
    }
    for (const auto& v : glitched) {
        os << "\nGLITCHED-CHECK: " << v.to_string() << "\n";
    }
    if (!glitched.empty()) {
        os << "\n" << glitched.size()
           << " compiled-in check(s) bypassed by induced faults — documented residual "
              "(a software check runs on the same glitchable machine as the code it "
              "guards; see DESIGN.md §15), not a fail-closed violation\n";
    }
    for (const auto& v : statecont.violations) {
        os << "\nSTATE-CONTINUITY: " << v << "\n";
    }
    os << "\nfail-closed invariant: " << (fail_closed() ? "HOLDS" : "VIOLATED") << " across "
       << total_windows() << " fault windows\n";
    return os.str();
}

profile::Registry fault_sweep_metrics(const FaultSweepReport& report) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "fault-sweep"}};
    reg.counter_add("sweep_cells_total", base, report.cells);
    reg.counter_add("baseline_blocked_total", base, report.baseline_blocked);
    reg.counter_add("baseline_success_total", base, report.baseline_success);
    reg.counter_add("fail_open_violations_total", base, report.violations.size());
    reg.counter_add("glitched_check_flips_total", base, report.glitched.size());
    for (const ClassTally& t : report.tallies) {
        const profile::Labels cls = {{"harness", "fault-sweep"},
                                     {"class", fault::fault_class_name(t.cls)}};
        reg.counter_add("fault_windows_total", cls, t.windows);
        reg.counter_add("fault_power_cuts_total", cls, t.power_cut);
        reg.counter_add("fault_still_blocked_total", cls, t.still_blocked);
        reg.counter_add("fail_open_flips_total", cls, t.fail_open);
        reg.counter_add("fault_glitched_checks_total", cls, t.glitched_check);
    }
    reg.counter_add("statecont_windows_total", base, report.statecont.windows);
    reg.counter_add("statecont_crashes_total", base, report.statecont.crashes);
    reg.counter_add("statecont_violations_total", base, report.statecont.violations.size());
    // The baseline cells carry the same per-victim platform tallies the
    // matrix aggregates; fold them in under this harness's label.
    add_victim_metrics(reg, base, report.baseline_cells);
    for (const MatrixCell& c : report.baseline_cells) {
        // Trap latency over the healthy-platform baseline: same definition
        // as the matrix harness, under this harness's label so the two
        // exports stay independently diffable.
        if (!c.outcome.succeeded) {
            reg.histogram_observe("sweep_trap_latency_steps",
                                  {{"harness", "fault-sweep"},
                                   {"attack", attack_name(c.attack)}},
                                  c.outcome.steps);
        }
    }
    reg.set_help("sweep_trap_latency_steps",
                 "Victim instructions retired before a defense trapped the attack "
                 "(healthy-platform baseline cells)");
    return reg;
}

} // namespace swsec::core
