#include "core/campaign/campaign.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <sys/stat.h>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "core/fault_sweep.hpp"
#include "core/image_cache.hpp"
#include "core/matrix.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzz.hpp"
#include "os/process.hpp"
#include "trace/trace.hpp"

namespace swsec::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// An attempt that hit its wall-clock deadline — distinguished from other
/// failures so the quarantine record says "timeout", not "crash".
struct CellTimeout : Error {
    explicit CellTimeout(const std::string& what) : Error(what) {}
};

void mkdir_p(const std::string& dir) {
    std::string partial;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i == dir.size() || dir[i] == '/') {
            if (!partial.empty() && partial != "/" &&
                ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
                throw Error("campaign: cannot create " + partial + ": " + std::strerror(errno));
            }
        }
        if (i < dir.size()) {
            partial += dir[i];
        }
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

// ---- cell execution -----------------------------------------------------

std::string run_matrix_cell(const Spec& spec, std::uint64_t cell) {
    const auto& attacks = core::all_attacks();
    const auto& defenses = core::standard_defenses();
    const std::uint64_t lattice = attacks.size() * defenses.size();
    const std::uint64_t d = cell / lattice;
    const std::uint64_t r = cell % lattice;
    core::MatrixCell mc;
    mc.attack = attacks[r / defenses.size()];
    mc.defense = defenses[r % defenses.size()].name;
    mc.outcome = core::run_attack(mc.attack, defenses[r % defenses.size()],
                                  spec.victim_seed + d, spec.attacker_seed + d);
    return "{\"draw\":" + std::to_string(d) + "," + core::matrix_cell_json(mc).substr(1);
}

std::string run_fault_cell(const Spec& spec, std::uint64_t cell) {
    const auto& defenses = core::standard_defenses();
    core::FaultSweepOptions fso;
    fso.victim_seed = spec.victim_seed;
    fso.attacker_seed = spec.attacker_seed;
    fso.fault_seed = spec.fault_seed;
    fso.windows_per_class = spec.windows_per_class;
    fso.include_statecont = false;
    fso.jobs = 1; // parallelism lives in the campaign scheduler, not the cell
    const core::FaultCellSweep cs =
        core::sweep_fault_cell(fso, cell / defenses.size(), cell % defenses.size());
    std::string out = "{\"baseline\":";
    out += core::matrix_cell_json(cs.record);
    out += cs.baseline_success ? ",\"baseline_success\":true" : ",\"baseline_success\":false";
    out += ",\"tallies\":[";
    for (std::size_t i = 0; i < cs.tallies.size(); ++i) {
        const core::ClassTally& t = cs.tallies[i];
        if (i != 0) {
            out += ",";
        }
        out += "{\"class\":\"";
        out += fault::fault_class_name(t.cls);
        out += "\",\"windows\":" + std::to_string(t.windows);
        out += ",\"power_cut\":" + std::to_string(t.power_cut);
        out += ",\"still_blocked\":" + std::to_string(t.still_blocked);
        out += ",\"fail_open\":" + std::to_string(t.fail_open);
        out += ",\"glitched_check\":" + std::to_string(t.glitched_check) + "}";
    }
    out += "],\"violations\":[";
    for (std::size_t i = 0; i < cs.violations.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += "\"";
        out += trace::json_escape(cs.violations[i].to_string());
        out += "\"";
    }
    out += "],\"glitched\":[";
    for (std::size_t i = 0; i < cs.glitched.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += "\"";
        out += trace::json_escape(cs.glitched[i].to_string());
        out += "\"";
    }
    out += "]}";
    return out;
}

std::string run_fuzz_cell(const Spec& spec, std::uint64_t cell) {
    const std::uint64_t seed = spec.seed_base + cell;
    const fuzz::GenProgram prog = fuzz::generate_program(seed);
    fuzz::FuzzReport stats;
    const std::vector<fuzz::Divergence> divs =
        fuzz::check_program(prog.render(), seed, fuzz::kMaxSteps, &stats);
    std::string out = "{\"seed\":" + std::to_string(seed);
    out += ",\"runs\":" + std::to_string(stats.runs);
    out += ",\"const_checks\":" + std::to_string(stats.const_checks);
    out += ",\"divergences\":" + std::to_string(divs.size());
    if (!divs.empty()) {
        out += ",\"repro\":\"" + trace::json_escape(fuzz::to_repro_file(divs)) + "\"";
    }
    out += "}";
    return out;
}

/// One evolutionary island: a complete (small) mutational fuzzing run with
/// its own seed-derived initial population, corpus and coverage map.  The
/// island runs serially — cell-level parallelism belongs to the campaign
/// scheduler — and its payload is the full deterministic evolve report.
std::string run_fuzz_evolve_cell(const Spec& spec, std::uint64_t cell) {
    fuzz::EvolveOptions eo;
    eo.seed = spec.seed_base + cell;
    eo.execs = spec.evolve_execs < 1 ? 1 : spec.evolve_execs;
    eo.init_programs = spec.evolve_init < 1 ? 1 : spec.evolve_init;
    eo.batch = eo.init_programs;
    eo.jobs = 1;
    const fuzz::EvolveReport rep = fuzz::run_evolve(eo);
    return rep.to_json();
}

/// The hang sabotage: a genuine in-VM infinite loop run with its step
/// watchdog effectively disabled (the budget is re-granted slice by slice),
/// so only the campaign's wall-clock deadline can stop it.
std::string run_hang_cell(const Spec& spec, Clock::time_point deadline,
                          std::uint64_t timeout_ms) {
    static const char* kSource = "int main() { while (1) { } return 0; }";
    const auto img = core::cached_compile(kSource, cc::CompilerOptions{});
    os::Process p(img, os::SecurityProfile::none(), spec.victim_seed);
    for (;;) {
        const vm::RunResult r = p.run(250'000); // one slice of the "disabled" watchdog
        if (!r.watchdog_expired()) {
            return "{\"note\":\"sabotage hang cell terminated\"}";
        }
        if (Clock::now() >= deadline) {
            throw CellTimeout("cell wall-clock deadline exceeded (" +
                              std::to_string(timeout_ms) + " ms)");
        }
        p.machine().clear_trap(); // re-arm and keep running the loop
    }
}

std::string run_cell_attempt(const Spec& spec, std::uint64_t cell, unsigned attempt,
                             const Options& opts) {
    if (spec.sabotage.crash_cell == static_cast<std::int64_t>(cell) &&
        attempt <= static_cast<unsigned>(spec.sabotage.crash_times)) {
        throw Error("sabotage: injected worker crash");
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(opts.cell_timeout_ms);
    if (spec.sabotage.hang_cell == static_cast<std::int64_t>(cell)) {
        return run_hang_cell(spec, deadline, opts.cell_timeout_ms);
    }
    switch (spec.kind) {
    case Kind::Matrix: return run_matrix_cell(spec, cell);
    case Kind::FaultSweep: return run_fault_cell(spec, cell);
    case Kind::Fuzz: return run_fuzz_cell(spec, cell);
    case Kind::FuzzEvolve: return run_fuzz_evolve_cell(spec, cell);
    }
    throw InternalError("campaign: unknown kind");
}

/// Shared tallies for one run: atomics the workers bump and the heartbeat
/// thread reads, plus the registry the per-cell histograms land in (the
/// Registry is itself thread-safe).
struct RunCounters {
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> done{0};        // cells finished Done this run
    std::atomic<std::uint64_t> quarantined{0}; // cells quarantined this run
};

void execute_cell(const Spec& spec, std::uint64_t cell, const Options& opts, WalWriter& writer,
                  RunCounters& rc, profile::Registry& metrics, const profile::Labels& base) {
    const Clock::time_point cell_t0 = Clock::now();
    const auto observe_cell = [&](unsigned attempts) {
        // Wall time and attempt count are schedule/history dependent:
        // Volatile, like every other timing the campaign exports.
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - cell_t0);
        metrics.histogram_observe("campaign_cell_wall_ms", base,
                                  static_cast<std::uint64_t>(ms.count()),
                                  profile::Volatile::Yes);
        metrics.histogram_observe("campaign_cell_attempts", base, attempts,
                                  profile::Volatile::Yes);
    };
    std::string reason = "crash";
    std::string last_detail;
    for (unsigned attempt = 1; attempt <= opts.max_attempts; ++attempt) {
        if (attempt > 1) {
            ++rc.retries;
            // Exponential backoff before each retry: 1x, 2x, 4x ... the base.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                opts.retry_backoff_ms << (attempt - 2)));
        }
        try {
            WalRecord rec;
            rec.cell = cell;
            rec.status = CellStatus::Done;
            rec.payload = run_cell_attempt(spec, cell, attempt, opts);
            writer.append(rec);
            observe_cell(attempt);
            ++rc.done;
            return;
        } catch (const CellTimeout& e) {
            ++rc.timeouts;
            reason = "timeout";
            last_detail = e.what();
        } catch (const std::exception& e) {
            reason = "crash";
            last_detail = e.what();
        }
    }
    // Attempts exhausted: degrade, don't abort.  The record carries the
    // repro coordinates so the cell can be re-run in isolation.
    WalRecord q;
    q.cell = cell;
    q.status = CellStatus::Quarantined;
    q.reason = reason;
    q.attempts = opts.max_attempts;
    q.detail = last_detail + " | repro: " + spec.cell_coords_json(cell);
    writer.append(q);
    observe_cell(opts.max_attempts);
    ++rc.quarantined;
}

// ---- merge artifacts ----------------------------------------------------

void write_merge_artifacts(const std::string& dir, const Report& rep,
                           const std::map<std::uint64_t, WalRecord>& by_cell) {
    std::string report_text;
    std::string quarantine_text;
    for (const auto& [cell, rec] : by_cell) {
        if (rec.status == CellStatus::Done) {
            SWSEC_ASSERT(!rec.payload.empty() && rec.payload.front() == '{',
                         "cell payload must be a JSON object");
            report_text += "{\"cell\":" + std::to_string(cell) + "," + rec.payload.substr(1);
            report_text += "\n";
        } else {
            // The WAL line sans CRC framing is already the record's JSON.
            const std::string line = wal_line(rec);
            quarantine_text += line.substr(9);
        }
    }
    write_file_atomic(dir + "/report.jsonl", report_text);
    write_file_atomic(dir + "/quarantine.jsonl", quarantine_text);
    write_file_atomic(dir + "/summary.txt", rep.summary());
}

Report run_in_dir(const Spec& spec, const std::string& dir, const Options& opts) {
    const Clock::time_point t0 = Clock::now();
    mkdir_p(dir);

    const std::string manifest_path = dir + "/manifest.json";
    if (read_file(manifest_path).empty()) {
        write_file_atomic(manifest_path, "{\"schema\":\"swsec-campaign-v1\",\"id\":\"" +
                                             spec.id() + "\",\"spec\":" + spec.to_json() + "}");
    } else if (read_manifest(dir).id() != spec.id()) {
        throw Error("campaign: " + dir + " holds a different campaign (id " +
                    read_manifest(dir).id() + ", want " + spec.id() + ")");
    }

    Report rep;
    rep.id = spec.id();
    rep.kind = spec.kind;
    rep.cells_total = spec.cell_count();

    const std::string wal_path = dir + "/campaign.jsonl";
    WalContents wal = read_wal(wal_path);
    rep.wal_lines_dropped = wal.dropped_lines;
    if (wal.truncated) {
        // Drop the damaged suffix on disk before appending: the cells whose
        // records were torn re-run below, everything before them is kept.
        std::string text;
        for (const std::string& line : wal.lines) {
            text += line;
            text += "\n";
        }
        write_file_atomic(wal_path, text);
    }

    std::unordered_set<std::uint64_t> have;
    std::uint64_t resumed_quarantined = 0;
    for (const WalRecord& rec : wal.records) {
        if (rec.cell < rep.cells_total && have.insert(rec.cell).second &&
            rec.status == CellStatus::Quarantined) {
            ++resumed_quarantined;
        }
    }
    rep.cells_resumed = have.size();

    std::vector<std::uint64_t> remaining;
    for (std::uint64_t c = 0; c < rep.cells_total; ++c) {
        if (!have.contains(c)) {
            remaining.push_back(c);
        }
    }
    if (opts.max_cells != 0 && remaining.size() > opts.max_cells) {
        remaining.resize(opts.max_cells);
    }
    rep.cells_run = remaining.size();

    const profile::Labels base = {{"harness", "campaign"}, {"kind", kind_name(spec.kind)}};
    rep.metrics.set_help("campaign_cell_wall_ms",
                         "Wall-clock milliseconds per campaign cell, all attempts included");
    rep.metrics.set_help("campaign_cell_attempts", "Attempts needed per campaign cell");
    rep.metrics.set_help("campaign_worker_chunks", "Work-stealing chunks executed per worker");
    rep.metrics.set_help("campaign_worker_steals", "Chunks stolen from a sibling per worker");

    RunCounters rc;

    // Live telemetry: every heartbeat, one swsec-progress-v1 record goes to
    // <dir>/progress.jsonl (whole-file atomic snapshot: a reader never sees
    // a torn line) and, when asked, a Prometheus snapshot of the live
    // registry.  The EWMA smooths the accounted-cells rate; ETA is
    // remaining / EWMA once a rate exists.
    const std::string progress_path = dir + "/progress.jsonl";
    std::string progress_text = read_file(progress_path); // append across resumes
    std::uint64_t hb_seq = 0;
    double hb_ewma = 0.0;
    std::uint64_t hb_last_accounted = rep.cells_resumed;
    Clock::time_point hb_last_t = t0;
    const auto emit_heartbeat = [&](bool complete_flag) {
        const Clock::time_point now = Clock::now();
        const double elapsed =
            std::chrono::duration_cast<std::chrono::duration<double>>(now - t0).count();
        const std::uint64_t accounted = rep.cells_resumed + rc.done.load() +
                                        rc.quarantined.load();
        const std::uint64_t quarantined = resumed_quarantined + rc.quarantined.load();
        const double dt =
            std::chrono::duration_cast<std::chrono::duration<double>>(now - hb_last_t).count();
        if (dt > 0.0) {
            const double inst = static_cast<double>(accounted - hb_last_accounted) / dt;
            hb_ewma = hb_seq == 0 ? inst : 0.3 * inst + 0.7 * hb_ewma;
        }
        hb_last_accounted = accounted;
        hb_last_t = now;
        ++hb_seq;
        const std::uint64_t left = rep.cells_total - accounted;
        std::string line = "{\"schema\":\"swsec-progress-v1\"";
        line += ",\"seq\":" + std::to_string(hb_seq);
        line += ",\"elapsed_sec\":" + format_double(elapsed);
        line += ",\"cells_total\":" + std::to_string(rep.cells_total);
        line += ",\"cells_done\":" + std::to_string(accounted - quarantined);
        line += ",\"cells_quarantined\":" + std::to_string(quarantined);
        line += ",\"cells_remaining\":" + std::to_string(left);
        line += ",\"ewma_cells_per_sec\":" + format_double(hb_ewma);
        line += ",\"eta_sec\":" +
                (hb_ewma > 0.0 ? format_double(static_cast<double>(left) / hb_ewma) : "null");
        line += complete_flag ? ",\"complete\":true}" : ",\"complete\":false}";
        progress_text += line + "\n";
        write_file_atomic(progress_path, progress_text);
        if (!opts.prom_out.empty()) {
            write_file_atomic(opts.prom_out, rep.metrics.to_prometheus(true));
        }
    };

    if (!remaining.empty()) {
        WalWriter writer(wal_path, opts.fsync_every);

        std::mutex hb_mu;
        std::condition_variable hb_cv;
        bool hb_stop = false;
        std::thread hb_thread;
        if (opts.heartbeat_ms > 0) {
            hb_thread = std::thread([&] {
                std::unique_lock<std::mutex> lk(hb_mu);
                while (!hb_cv.wait_for(lk, std::chrono::milliseconds(opts.heartbeat_ms),
                                       [&] { return hb_stop; })) {
                    lk.unlock();
                    emit_heartbeat(false);
                    lk.lock();
                }
            });
        }

        core::ParallelOptions popts;
        popts.jobs = opts.jobs;
        popts.grain = 1; // cells are coarse; maximum balance beats chunk locality
        popts.stats = &rep.sched;
        try {
            core::parallel_for_ws(remaining.size(), popts, [&](std::size_t k) {
                execute_cell(spec, remaining[k], opts, writer, rc, rep.metrics, base);
            });
        } catch (...) {
            if (hb_thread.joinable()) {
                {
                    const std::lock_guard<std::mutex> lk(hb_mu);
                    hb_stop = true;
                }
                hb_cv.notify_all();
                hb_thread.join();
            }
            throw;
        }
        if (hb_thread.joinable()) {
            {
                const std::lock_guard<std::mutex> lk(hb_mu);
                hb_stop = true;
            }
            hb_cv.notify_all();
            hb_thread.join();
        }
        writer.sync();
        rep.retries = rc.retries.load();
        rep.timeouts = rc.timeouts.load();
        for (const std::uint64_t v : rep.sched.worker_chunks) {
            rep.metrics.histogram_observe("campaign_worker_chunks", base, v,
                                          profile::Volatile::Yes);
        }
        for (const std::uint64_t v : rep.sched.worker_steals) {
            rep.metrics.histogram_observe("campaign_worker_steals", base, v,
                                          profile::Volatile::Yes);
        }
    }

    // Final accounting from a re-read: the log on disk is the single source
    // of truth, so what we report is exactly what a resume would see.
    std::map<std::uint64_t, WalRecord> by_cell;
    for (WalRecord& rec : read_wal(wal_path).records) {
        if (rec.cell < rep.cells_total) {
            by_cell.emplace(rec.cell, std::move(rec));
        }
    }
    for (const auto& [cell, rec] : by_cell) {
        if (rec.status == CellStatus::Done) {
            ++rep.cells_completed;
        } else {
            ++rep.cells_quarantined;
            rep.quarantined.push_back(rec);
        }
    }
    if (rep.complete()) {
        write_merge_artifacts(dir, rep, by_cell);
    }
    // A final heartbeat whenever the thread was enabled, so even a run
    // faster than one period leaves a record and followers see completion.
    if (opts.heartbeat_ms > 0) {
        emit_heartbeat(rep.complete());
    }
    rep.elapsed_sec =
        std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - t0).count();
    return rep;
}

} // namespace

Report run_campaign(const Spec& spec, const std::string& dir, const Options& opts) {
    spec.validate();
    return run_in_dir(spec, dir, opts);
}

Report resume_campaign(const std::string& dir, const Options& opts) {
    return run_in_dir(read_manifest(dir), dir, opts);
}

Spec read_manifest(const std::string& dir) {
    const std::string text = read_file(dir + "/manifest.json");
    if (text.empty()) {
        throw Error("campaign: no manifest in " + dir);
    }
    const std::size_t pos = text.find("\"spec\":");
    if (pos == std::string::npos || text.back() != '}') {
        throw Error("campaign: malformed manifest in " + dir);
    }
    // The spec object runs from just past the key to the manifest's final
    // closing brace.
    Spec spec = Spec::from_json(text.substr(pos + 7, text.size() - (pos + 7) - 1));
    // The stored id names the campaign whose cells the WAL logged: a spec
    // edited after the fact must not inherit them.
    const std::size_t id_at = text.find("\"id\":\"");
    const std::size_t id_end = id_at < pos ? text.find('"', id_at + 6) : std::string::npos;
    const std::string stored = id_end < pos ? text.substr(id_at + 6, id_end - (id_at + 6)) : "";
    if (stored != spec.id()) {
        throw Error("campaign: manifest in " + dir + " stores id \"" + stored +
                    "\" but its spec hashes to " + spec.id());
    }
    return spec;
}

namespace {

/// Extract `"key":<number>` from one of our own fixed-schema JSON lines.
/// Not a JSON parser — every producer in this file writes flat objects with
/// unambiguous keys, which is all the probe needs.
bool json_number_field(const std::string& line, const std::string& key, double& out) {
    const std::size_t pos = line.find("\"" + key + "\":");
    if (pos == std::string::npos) {
        return false;
    }
    const char* start = line.c_str() + pos + key.size() + 3;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
        return false; // e.g. "eta_sec":null
    }
    out = v;
    return true;
}

} // namespace

Status campaign_status(const std::string& dir) {
    Status st;
    const std::string text = read_file(dir + "/manifest.json");
    if (text.empty()) {
        return st;
    }
    const Spec spec = read_manifest(dir);
    st.exists = true;
    st.id = spec.id();
    st.kind = spec.kind;
    st.cells_total = spec.cell_count();
    const WalContents wal = read_wal(dir + "/campaign.jsonl");
    st.wal_truncated = wal.truncated;
    st.wal_lines_dropped = wal.dropped_lines;
    std::unordered_set<std::uint64_t> done;
    std::unordered_set<std::uint64_t> quarantined;
    for (const WalRecord& rec : wal.records) {
        if (rec.cell >= st.cells_total || done.contains(rec.cell) ||
            quarantined.contains(rec.cell)) {
            continue;
        }
        (rec.status == CellStatus::Done ? done : quarantined).insert(rec.cell);
        if (rec.status == CellStatus::Quarantined) {
            (rec.reason == "timeout" ? st.quarantined_timeout : st.quarantined_crash) += 1;
        }
    }
    st.cells_completed = done.size();
    st.cells_quarantined = quarantined.size();

    // Last heartbeat, if the campaign ran with telemetry on.  The file is
    // written as an atomic whole-file snapshot, so the last line is intact.
    const std::string progress = read_file(dir + "/progress.jsonl");
    if (!progress.empty()) {
        std::size_t end = progress.find_last_not_of('\n');
        if (end != std::string::npos) {
            const std::size_t start = progress.rfind('\n', end);
            const std::string last =
                progress.substr(start == std::string::npos ? 0 : start + 1,
                                end - (start == std::string::npos ? 0 : start + 1) + 1);
            double v = 0.0;
            if (last.find("\"schema\":\"swsec-progress-v1\"") != std::string::npos) {
                st.heartbeat = true;
                if (json_number_field(last, "seq", v)) {
                    st.hb_seq = static_cast<std::uint64_t>(v);
                }
                if (json_number_field(last, "elapsed_sec", v)) {
                    st.hb_elapsed_sec = v;
                }
                if (json_number_field(last, "ewma_cells_per_sec", v)) {
                    st.hb_cells_per_sec = v;
                }
                if (json_number_field(last, "eta_sec", v)) {
                    st.hb_eta_sec = v;
                }
            }
        }
    }
    return st;
}

std::string Report::summary() const {
    std::string out = "campaign " + id + "\n";
    out += "kind: ";
    out += kind_name(kind);
    out += "\ncells: " + std::to_string(cells_total) + " total, " +
           std::to_string(cells_completed) + " completed, " +
           std::to_string(cells_quarantined) + " quarantined\n";
    if (quarantined.empty()) {
        out += "quarantined: none\n";
    } else {
        out += "quarantined:\n";
        for (const WalRecord& q : quarantined) {
            out += "  cell " + std::to_string(q.cell) + ": " + q.reason + " after " +
                   std::to_string(q.attempts) + " attempts\n";
        }
    }
    out += complete() ? "status: COMPLETE\n" : "status: INCOMPLETE\n";
    return out;
}

std::string Status::to_string() const {
    if (!exists) {
        return "no campaign (missing manifest)\n";
    }
    std::string out = "campaign " + id + "\n";
    out += "kind: ";
    out += kind_name(kind);
    const std::uint64_t accounted = cells_completed + cells_quarantined;
    const std::uint64_t pct = cells_total == 0 ? 100 : accounted * 100 / cells_total;
    out += "\ncells: " + std::to_string(cells_total) + " total, " +
           std::to_string(cells_completed) + " completed, " +
           std::to_string(cells_quarantined) + " quarantined (" + std::to_string(pct) +
           "% accounted)\n";
    if (cells_quarantined > 0) {
        out += "quarantine reasons: timeout=" + std::to_string(quarantined_timeout) +
               " crash=" + std::to_string(quarantined_crash) + "\n";
    }
    if (wal_truncated) {
        out += "wal: damaged suffix (" + std::to_string(wal_lines_dropped) +
               " lines) — next resume truncates and re-runs those cells\n";
    }
    if (heartbeat) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "last heartbeat: #%llu at %.1fs, %.2f cells/s (EWMA)",
                      static_cast<unsigned long long>(hb_seq), hb_elapsed_sec,
                      hb_cells_per_sec);
        out += buf;
        if (hb_eta_sec >= 0.0) {
            std::snprintf(buf, sizeof buf, ", ETA %.1fs", hb_eta_sec);
            out += buf;
        }
        out += "\n";
    }
    out += complete() ? "status: COMPLETE\n" : "status: INCOMPLETE\n";
    return out;
}

profile::Registry campaign_metrics(const Report& r) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "campaign"}, {"kind", kind_name(r.kind)}};
    // Lattice-derived: identical for any jobs value and any crash history
    // that reaches completion.
    reg.counter_add("cells_total", base, r.cells_total);
    reg.counter_add("cells_completed_total", base, r.cells_completed);
    reg.counter_add("cells_quarantined_total", base, r.cells_quarantined);
    // Crash-history / schedule dependent: quarantined as Volatile so a
    // CI-diffed export never sees them.
    reg.counter_add("cells_resumed_total", base, r.cells_resumed, profile::Volatile::Yes);
    reg.counter_add("cells_run_total", base, r.cells_run, profile::Volatile::Yes);
    reg.counter_add("cell_retries_total", base, r.retries, profile::Volatile::Yes);
    reg.counter_add("cell_timeouts_total", base, r.timeouts, profile::Volatile::Yes);
    reg.counter_add("wal_lines_dropped_total", base, r.wal_lines_dropped,
                    profile::Volatile::Yes);
    reg.counter_add("scheduler_chunks_total", base, r.sched.chunks, profile::Volatile::Yes);
    reg.counter_add("scheduler_steals_total", base, r.sched.steals, profile::Volatile::Yes);
    reg.gauge_set("elapsed_sec", base, r.elapsed_sec, profile::Volatile::Yes);
    reg.gauge_set("cells_per_sec", base,
                  r.elapsed_sec > 0.0 ? static_cast<double>(r.cells_run) / r.elapsed_sec : 0.0,
                  profile::Volatile::Yes);
    // Per-cell wall-time/attempt and per-worker depth histograms gathered
    // while the run executed (already Volatile at observation time).
    reg.merge(r.metrics);
    return reg;
}

} // namespace swsec::campaign
