// Campaign engine tests: spec identity, WAL framing/CRC recovery, in-process
// interrupt/resume byte-identity, sabotage (hang -> quarantine, crash ->
// retry), and the crash-recovery harness that SIGKILLs a real campaign
// subprocess at seeded points and proves the resumed merge is byte-identical
// to an uninterrupted reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "core/campaign/campaign.hpp"
#include "core/campaign/spec.hpp"
#include "core/campaign/wal.hpp"
#include "core/image_cache.hpp"

namespace {

using namespace swsec;
using namespace swsec::campaign;

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "swsec_campaign_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// A small fuzz campaign: cheap cells (~10ms each), fully deterministic.
Spec small_fuzz_spec(int seeds = 6) {
    Spec s;
    s.kind = Kind::Fuzz;
    s.seeds = seeds;
    return s;
}

Options fast_opts() {
    Options o;
    o.retry_backoff_ms = 1;
    return o;
}

// ---- spec ---------------------------------------------------------------

TEST(CampaignSpec, JsonRoundTripPreservesEveryField) {
    Spec s;
    s.kind = Kind::FaultSweep;
    s.victim_seed = 77;
    s.attacker_seed = 88;
    s.draws = 3;
    s.fault_seed = 99;
    s.windows_per_class = 4;
    s.seed_base = 1000;
    s.seeds = 250;
    s.sabotage.hang_cell = 5;
    s.sabotage.crash_cell = 6;
    s.sabotage.crash_times = 1;
    const Spec r = Spec::from_json(s.to_json());
    EXPECT_EQ(r.kind, s.kind);
    EXPECT_EQ(r.victim_seed, s.victim_seed);
    EXPECT_EQ(r.attacker_seed, s.attacker_seed);
    EXPECT_EQ(r.draws, s.draws);
    EXPECT_EQ(r.fault_seed, s.fault_seed);
    EXPECT_EQ(r.windows_per_class, s.windows_per_class);
    EXPECT_EQ(r.seed_base, s.seed_base);
    EXPECT_EQ(r.seeds, s.seeds);
    EXPECT_EQ(r.sabotage.hang_cell, s.sabotage.hang_cell);
    EXPECT_EQ(r.sabotage.crash_cell, s.sabotage.crash_cell);
    EXPECT_EQ(r.sabotage.crash_times, s.sabotage.crash_times);
    EXPECT_EQ(r.to_json(), s.to_json());
    EXPECT_EQ(r.id(), s.id());
}

TEST(CampaignSpec, IdIsStableAndSpecSensitive) {
    const Spec a = small_fuzz_spec();
    EXPECT_EQ(a.id().size(), 16u);
    EXPECT_EQ(a.id(), small_fuzz_spec().id()); // same spec, same id
    Spec b = a;
    b.seeds = 7;
    EXPECT_NE(a.id(), b.id()); // any field change renames the campaign
}

TEST(CampaignSpec, KindNamesRoundTrip) {
    for (const Kind k : {Kind::Matrix, Kind::FaultSweep, Kind::Fuzz}) {
        Kind out = Kind::Matrix;
        EXPECT_TRUE(kind_from_name(kind_name(k), out));
        EXPECT_EQ(out, k);
    }
    Kind out = Kind::Matrix;
    EXPECT_FALSE(kind_from_name("bogus", out));
}

TEST(CampaignSpec, MalformedJsonThrows) {
    EXPECT_THROW((void)Spec::from_json("{}"), Error);
    EXPECT_THROW((void)Spec::from_json("{\"schema\":\"other\"}"), Error);
}

/// `s.to_json()` with the value of `"key":` replaced by `value`.
std::string with_field(const Spec& s, const std::string& key, const std::string& value) {
    std::string json = s.to_json();
    const std::size_t at = json.find("\"" + key + "\":") + key.size() + 3;
    const std::size_t end = json.find_first_of(",}", at);
    return json.replace(at, end - at, value);
}

TEST(CampaignSpec, FullRangeSeedsRoundTrip) {
    Spec s;
    s.victim_seed = ~0ULL;
    s.attacker_seed = ~0ULL;
    s.fault_seed = ~0ULL;
    s.seed_base = ~0ULL;
    const Spec r = Spec::from_json(s.to_json());
    EXPECT_EQ(r.victim_seed, ~0ULL);
    EXPECT_EQ(r.attacker_seed, ~0ULL);
    EXPECT_EQ(r.fault_seed, ~0ULL);
    EXPECT_EQ(r.seed_base, ~0ULL);
    EXPECT_EQ(r.to_json(), s.to_json());
}

TEST(CampaignSpec, HostileNumbersAreRejectedNotWrapped) {
    const Spec s;
    // One past 2^64-1 would wrap; no field may take it.
    EXPECT_THROW((void)Spec::from_json(with_field(s, "seed_base", "18446744073709551616")),
                 Error);
    EXPECT_THROW((void)Spec::from_json(with_field(s, "draws", "99999999999999999999")), Error);
    EXPECT_THROW((void)Spec::from_json(with_field(s, "draws", "2147483648")), Error);
    EXPECT_THROW((void)Spec::from_json(with_field(s, "victim_seed", "-1")), Error);
    // INT64_MIN parses without signed overflow, then fails validation.
    EXPECT_THROW((void)Spec::from_json(with_field(s, "hang_cell", "-9223372036854775808")),
                 Error);
    EXPECT_THROW((void)Spec::from_json(with_field(s, "crash_cell", "-2")), Error);
    for (const char* count :
         {"draws", "seeds", "windows_per_class", "evolve_execs", "evolve_init", "crash_times"}) {
        EXPECT_THROW((void)Spec::from_json(with_field(s, count, "-1")), Error) << count;
    }
    // -1 still means "no sabotage cell".
    EXPECT_EQ(Spec::from_json(with_field(s, "hang_cell", "-1")).sabotage.hang_cell, -1);
}

TEST(CampaignSpec, NegativeCountManifestIsRefusedOnResumeAndStatus) {
    const std::string dir = scratch("negative_draws");
    Spec spec;
    spec.kind = Kind::Matrix;
    Options opts = fast_opts();
    opts.max_cells = 3;
    (void)run_campaign(spec, dir, opts);
    const std::string manifest = slurp(dir + "/manifest.json");
    const std::size_t at = manifest.find("\"draws\":1,");
    ASSERT_NE(at, std::string::npos);
    std::ofstream(dir + "/manifest.json", std::ios::binary | std::ios::trunc)
        << std::string(manifest).replace(at, 10, "\"draws\":-1,");
    EXPECT_THROW((void)resume_campaign(dir, fast_opts()), Error);
    EXPECT_THROW((void)campaign_status(dir), Error);
}

TEST(CampaignSpec, EditedManifestIsRefusedOnResumeAndStatus) {
    // The WAL's records belong to the campaign the manifest's stored id
    // names.  A spec edited after the cells ran (or an edited id) would
    // credit those records to a different campaign, so both verbs refuse
    // it and leave the report alone.
    const std::string dir = scratch("edited_manifest");
    (void)run_campaign(small_fuzz_spec(4), dir, fast_opts());
    const std::string manifest = slurp(dir + "/manifest.json");
    const std::string report = slurp(dir + "/report.jsonl");
    ASSERT_FALSE(report.empty());
    const auto write_manifest = [&](const std::string& text) {
        std::ofstream(dir + "/manifest.json", std::ios::binary | std::ios::trunc) << text;
    };

    const std::size_t seed_at = manifest.find("\"seed_base\":1,");
    ASSERT_NE(seed_at, std::string::npos);
    write_manifest(std::string(manifest).replace(seed_at, 14, "\"seed_base\":101,"));
    EXPECT_THROW((void)resume_campaign(dir, fast_opts()), Error);
    EXPECT_THROW((void)campaign_status(dir), Error);
    EXPECT_EQ(slurp(dir + "/report.jsonl"), report);

    const std::string id = small_fuzz_spec(4).id();
    const std::size_t id_at = manifest.find("\"id\":\"" + id + "\"");
    ASSERT_NE(id_at, std::string::npos);
    write_manifest(std::string(manifest).replace(id_at + 6, id.size(), std::string(id.size(), '0')));
    EXPECT_THROW((void)resume_campaign(dir, fast_opts()), Error);
    EXPECT_THROW((void)campaign_status(dir), Error);
    EXPECT_EQ(slurp(dir + "/report.jsonl"), report);

    // The untouched manifest still resumes.
    write_manifest(manifest);
    EXPECT_EQ(campaign_status(dir).id, id);
    EXPECT_NO_THROW((void)resume_campaign(dir, fast_opts()));
    EXPECT_EQ(slurp(dir + "/report.jsonl"), report);
}

TEST(CampaignSpec, NegativeCountSpecIsRefusedByRunCampaign) {
    const std::string dir = scratch("negative_seeds");
    Spec spec = small_fuzz_spec();
    spec.seeds = -5;
    EXPECT_THROW((void)run_campaign(spec, dir, fast_opts()), Error);
    EXPECT_FALSE(std::filesystem::exists(dir)); // refused before touching the disk
}

// ---- WAL ----------------------------------------------------------------

TEST(CampaignWal, DoneLineRoundTrips) {
    WalRecord rec;
    rec.cell = 42;
    rec.status = CellStatus::Done;
    rec.payload = "{\"seed\":43,\"runs\":14}";
    const std::string line = wal_line(rec);
    ASSERT_EQ(line.back(), '\n');
    WalRecord out;
    ASSERT_TRUE(parse_wal_line(std::string_view(line).substr(0, line.size() - 1), out));
    EXPECT_EQ(out.cell, 42u);
    EXPECT_EQ(out.status, CellStatus::Done);
    EXPECT_EQ(out.payload, rec.payload);
}

TEST(CampaignWal, QuarantineLineRoundTripsWithEscapes) {
    WalRecord rec;
    rec.cell = 7;
    rec.status = CellStatus::Quarantined;
    rec.reason = "crash";
    rec.attempts = 2;
    rec.detail = "line1\nline2 \"quoted\" \\slash\ttab \x01 control";
    const std::string line = wal_line(rec);
    WalRecord out;
    ASSERT_TRUE(parse_wal_line(std::string_view(line).substr(0, line.size() - 1), out));
    EXPECT_EQ(out.cell, 7u);
    EXPECT_EQ(out.status, CellStatus::Quarantined);
    EXPECT_EQ(out.reason, "crash");
    EXPECT_EQ(out.attempts, 2u);
    EXPECT_EQ(out.detail, rec.detail);
}

TEST(CampaignWal, SingleBitCorruptionIsDetected) {
    WalRecord rec;
    rec.cell = 3;
    rec.payload = "{\"x\":1}";
    std::string line = wal_line(rec);
    line.pop_back(); // strip newline
    WalRecord out;
    ASSERT_TRUE(parse_wal_line(line, out));
    for (std::size_t i = 0; i < line.size(); ++i) {
        std::string bad = line;
        bad[i] ^= 0x01;
        EXPECT_FALSE(parse_wal_line(bad, out)) << "flipped byte " << i;
    }
    EXPECT_FALSE(parse_wal_line("", out));
    EXPECT_FALSE(parse_wal_line("short", out));
}

TEST(CampaignWal, ReaderKeepsOnlyTheValidPrefix) {
    const std::string dir = scratch("wal_prefix");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/campaign.jsonl";
    WalRecord a;
    a.cell = 0;
    a.payload = "{\"x\":0}";
    WalRecord b = a;
    b.cell = 1;
    WalRecord c = a;
    c.cell = 2;
    {
        std::ofstream out(path, std::ios::binary);
        out << wal_line(a) << wal_line(b);
        std::string damaged = wal_line(c);
        damaged[12] ^= 0xff; // bad CRC
        out << damaged;
        out << wal_line(a); // valid bytes after damage are untrusted too
        out << "torn tail without newline";
    }
    const WalContents wc = read_wal(path);
    ASSERT_EQ(wc.records.size(), 2u);
    EXPECT_EQ(wc.records[0].cell, 0u);
    EXPECT_EQ(wc.records[1].cell, 1u);
    EXPECT_TRUE(wc.truncated);
    EXPECT_EQ(wc.dropped_lines, 3u);
    std::filesystem::remove_all(dir);
}

TEST(CampaignWal, MissingFileIsAnEmptyLog) {
    const WalContents wc = read_wal(scratch("wal_missing") + "/campaign.jsonl");
    EXPECT_TRUE(wc.records.empty());
    EXPECT_FALSE(wc.truncated);
}

// ---- driver: checkpoint / resume ----------------------------------------

TEST(CampaignDriver, FreshRunCompletesAndWritesMergeArtifacts) {
    const std::string dir = scratch("fresh");
    const Report rep = run_campaign(small_fuzz_spec(), dir, fast_opts());
    EXPECT_TRUE(rep.complete());
    EXPECT_EQ(rep.cells_total, 6u);
    EXPECT_EQ(rep.cells_completed, 6u);
    EXPECT_EQ(rep.cells_quarantined, 0u);
    const std::string report = slurp(dir + "/report.jsonl");
    EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 6);
    EXPECT_NE(report.find("{\"cell\":0,\"seed\":1,"), std::string::npos);
    EXPECT_EQ(slurp(dir + "/quarantine.jsonl"), "");
    EXPECT_EQ(slurp(dir + "/summary.txt"), rep.summary());
    EXPECT_NE(slurp(dir + "/manifest.json").find(rep.id), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CampaignDriver, InterruptedRunResumesByteIdentical) {
    const Spec spec = small_fuzz_spec();
    const std::string ref = scratch("resume_ref");
    const std::string cut = scratch("resume_cut");
    (void)run_campaign(spec, ref, fast_opts());

    Options interrupted = fast_opts();
    interrupted.max_cells = 2; // deterministic mid-campaign stop
    const Report partial = run_campaign(spec, cut, interrupted);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.cells_completed, 2u);
    EXPECT_FALSE(std::filesystem::exists(cut + "/report.jsonl"));

    const Report resumed = resume_campaign(cut, fast_opts());
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.cells_resumed, 2u);
    EXPECT_EQ(resumed.cells_run, 4u);
    EXPECT_EQ(slurp(cut + "/report.jsonl"), slurp(ref + "/report.jsonl"));
    EXPECT_EQ(slurp(cut + "/summary.txt"), slurp(ref + "/summary.txt"));
    std::filesystem::remove_all(ref);
    std::filesystem::remove_all(cut);
}

TEST(CampaignDriver, ParallelRunIsByteIdenticalToSerial) {
    const Spec spec = small_fuzz_spec(8);
    const std::string d1 = scratch("jobs1");
    const std::string d4 = scratch("jobs4");
    (void)run_campaign(spec, d1, fast_opts());
    Options par = fast_opts();
    par.jobs = 4;
    (void)run_campaign(spec, d4, par);
    EXPECT_EQ(slurp(d4 + "/report.jsonl"), slurp(d1 + "/report.jsonl"));
    EXPECT_EQ(slurp(d4 + "/summary.txt"), slurp(d1 + "/summary.txt"));
    std::filesystem::remove_all(d1);
    std::filesystem::remove_all(d4);
}

TEST(CampaignDriver, DamagedWalSuffixIsTruncatedAndOnlyThoseCellsRerun) {
    const Spec spec = small_fuzz_spec();
    const std::string ref = scratch("crc_ref");
    const std::string dmg = scratch("crc_dmg");
    (void)run_campaign(spec, ref, fast_opts());
    (void)run_campaign(spec, dmg, fast_opts());

    // Corrupt the last record and append garbage — a torn kill -9 tail.
    const std::string wal_path = dmg + "/campaign.jsonl";
    std::string wal_text = slurp(wal_path);
    wal_text[wal_text.size() - 10] ^= 0x40;
    wal_text += "unframed garbage\n";
    {
        std::ofstream out(wal_path, std::ios::binary);
        out << wal_text;
    }
    std::filesystem::remove(dmg + "/report.jsonl");
    std::filesystem::remove(dmg + "/summary.txt");

    const Status st = campaign_status(dmg);
    EXPECT_TRUE(st.wal_truncated);
    EXPECT_EQ(st.wal_lines_dropped, 2u);
    EXPECT_EQ(st.cells_completed, 5u); // the valid prefix

    const Report rep = resume_campaign(dmg, fast_opts());
    EXPECT_TRUE(rep.complete());
    EXPECT_EQ(rep.wal_lines_dropped, 2u);
    EXPECT_EQ(rep.cells_run, 1u); // only the damaged suffix re-ran
    EXPECT_EQ(slurp(dmg + "/report.jsonl"), slurp(ref + "/report.jsonl"));
    // The rewritten log itself is fully valid again.
    EXPECT_FALSE(read_wal(wal_path).truncated);
    std::filesystem::remove_all(ref);
    std::filesystem::remove_all(dmg);
}

TEST(CampaignDriver, DirHoldingDifferentCampaignIsRefused) {
    const std::string dir = scratch("mismatch");
    (void)run_campaign(small_fuzz_spec(), dir, fast_opts());
    Spec other = small_fuzz_spec();
    other.seeds = 3;
    EXPECT_THROW((void)run_campaign(other, dir, fast_opts()), Error);
    std::filesystem::remove_all(dir);
}

TEST(CampaignDriver, StatusOnMissingDir) {
    const Status st = campaign_status(scratch("nodir"));
    EXPECT_FALSE(st.exists);
    EXPECT_FALSE(st.complete());
}

// ---- driver: retry / timeout / quarantine -------------------------------

TEST(CampaignQuarantine, HungCellIsQuarantinedNotFatal) {
    Spec spec = small_fuzz_spec(4);
    spec.sabotage.hang_cell = 1; // a real in-VM infinite loop
    Options opts = fast_opts();
    opts.cell_timeout_ms = 150;
    const std::string dir = scratch("hang");
    const Report rep = run_campaign(spec, dir, opts);
    EXPECT_TRUE(rep.complete()); // the campaign finishes around the hang
    EXPECT_EQ(rep.cells_completed, 3u);
    EXPECT_EQ(rep.cells_quarantined, 1u);
    EXPECT_EQ(rep.timeouts, 2u); // both attempts hit the deadline
    ASSERT_EQ(rep.quarantined.size(), 1u);
    EXPECT_EQ(rep.quarantined[0].cell, 1u);
    EXPECT_EQ(rep.quarantined[0].reason, "timeout");
    EXPECT_EQ(rep.quarantined[0].attempts, 2u);
    // The record carries repro coordinates for an isolated re-run.
    EXPECT_NE(rep.quarantined[0].detail.find("\"seed\":2"), std::string::npos);
    EXPECT_NE(slurp(dir + "/quarantine.jsonl").find("\"reason\":\"timeout\""),
              std::string::npos);

    // Resume skips the quarantined cell: nothing re-runs, nothing changes.
    const Report again = resume_campaign(dir, opts);
    EXPECT_TRUE(again.complete());
    EXPECT_EQ(again.cells_run, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CampaignQuarantine, CrashingCellIsRetriedThenSucceeds) {
    const std::string ref = scratch("crash_ref");
    const std::string dir = scratch("crash_once");
    (void)run_campaign(small_fuzz_spec(), ref, fast_opts());
    Spec spec = small_fuzz_spec();
    spec.sabotage.crash_cell = 2;
    spec.sabotage.crash_times = 1; // first attempt throws, retry succeeds
    const Report rep = run_campaign(spec, dir, fast_opts());
    EXPECT_TRUE(rep.complete());
    EXPECT_EQ(rep.cells_quarantined, 0u);
    EXPECT_EQ(rep.retries, 1u);
    // The retried cell's payload is the healthy one: the final report is
    // byte-identical to a never-sabotaged campaign's.
    EXPECT_EQ(slurp(dir + "/report.jsonl"), slurp(ref + "/report.jsonl"));
    std::filesystem::remove_all(ref);
    std::filesystem::remove_all(dir);
}

TEST(CampaignQuarantine, CrashingTwiceIsQuarantinedWithReproCoords) {
    Spec spec = small_fuzz_spec(4);
    spec.sabotage.crash_cell = 3;
    spec.sabotage.crash_times = 2; // both attempts throw
    const std::string dir = scratch("crash_twice");
    const Report rep = run_campaign(spec, dir, fast_opts());
    EXPECT_TRUE(rep.complete());
    EXPECT_EQ(rep.cells_quarantined, 1u);
    ASSERT_EQ(rep.quarantined.size(), 1u);
    EXPECT_EQ(rep.quarantined[0].reason, "crash");
    EXPECT_NE(rep.quarantined[0].detail.find("injected worker crash"), std::string::npos);
    EXPECT_NE(rep.quarantined[0].detail.find("\"kind\":\"fuzz\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---- metrics ------------------------------------------------------------

TEST(CampaignMetrics, DeterministicCountersAndVolatileQuarantine) {
    const std::string dir = scratch("metrics");
    const Report rep = run_campaign(small_fuzz_spec(), dir, fast_opts());
    const profile::Registry reg = campaign_metrics(rep);
    const profile::Labels base = {{"harness", "campaign"}, {"kind", "fuzz"}};
    EXPECT_EQ(reg.counter("cells_total", base), 6u);
    EXPECT_EQ(reg.counter("cells_completed_total", base), 6u);
    EXPECT_EQ(reg.counter("cells_quarantined_total", base), 0u);
    // Schedule/history-dependent series never leak into the deterministic
    // export; the volatile one carries them.
    const std::string det = reg.to_json(false);
    EXPECT_EQ(det.find("cells_per_sec"), std::string::npos);
    EXPECT_EQ(det.find("scheduler_steals_total"), std::string::npos);
    const std::string vol = reg.to_json(true);
    EXPECT_NE(vol.find("cells_per_sec"), std::string::npos);
    EXPECT_NE(vol.find("scheduler_steals_total"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CampaignMetrics, CellHistogramsAreVolatileAndPresent) {
    const std::string dir = scratch("cell_hist");
    const Report rep = run_campaign(small_fuzz_spec(), dir, fast_opts());
    const profile::Registry reg = campaign_metrics(rep);
    const profile::Labels base = {{"harness", "campaign"}, {"kind", "fuzz"}};
    // Every executed cell lands one wall-time and one attempts observation.
    EXPECT_EQ(reg.histogram_count("campaign_cell_wall_ms", base), 6u);
    EXPECT_EQ(reg.histogram_count("campaign_cell_attempts", base), 6u);
    EXPECT_EQ(reg.histogram_sum("campaign_cell_attempts", base), 6u); // all first-try
    // Serial run: exactly one worker slot in the depth histograms.
    EXPECT_EQ(reg.histogram_count("campaign_worker_chunks", base), 1u);
    // Wall times are schedule-dependent: the deterministic exposition must
    // not contain them, the volatile one must.
    EXPECT_EQ(reg.to_prometheus(false).find("campaign_cell_wall_ms"), std::string::npos);
    EXPECT_NE(reg.to_prometheus(true).find("campaign_cell_wall_ms_bucket"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---- live telemetry -----------------------------------------------------

TEST(CampaignTelemetry, HeartbeatWritesProgressV1Records) {
    const std::string dir = scratch("heartbeat");
    Options opts = fast_opts();
    opts.heartbeat_ms = 1; // fire as often as the scheduler allows
    const Report rep = run_campaign(small_fuzz_spec(), dir, opts);
    EXPECT_TRUE(rep.complete());
    const std::string progress = slurp(dir + "/progress.jsonl");
    ASSERT_FALSE(progress.empty());
    // Every line is one self-describing record; the last one says complete.
    std::istringstream in(progress);
    std::string line;
    std::string last;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("\"schema\":\"swsec-progress-v1\""), std::string::npos);
        EXPECT_NE(line.find("\"cells_total\":6"), std::string::npos);
        EXPECT_NE(line.find("\"ewma_cells_per_sec\":"), std::string::npos);
        EXPECT_NE(line.find("\"eta_sec\":"), std::string::npos);
        last = line;
        ++lines;
    }
    EXPECT_GE(lines, 1u);
    EXPECT_NE(last.find("\"complete\":true"), std::string::npos);
    EXPECT_NE(last.find("\"cells_done\":6"), std::string::npos);
    EXPECT_NE(last.find("\"cells_remaining\":0"), std::string::npos);

    // The status probe surfaces the last heartbeat.
    const Status st = campaign_status(dir);
    EXPECT_TRUE(st.heartbeat);
    EXPECT_GE(st.hb_seq, 1u);
    EXPECT_NE(st.to_string().find("last heartbeat:"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CampaignTelemetry, PromOutSnapshotWrittenAtCompletion) {
    const std::string dir = scratch("prom_out");
    Options opts = fast_opts();
    opts.heartbeat_ms = 1;
    opts.prom_out = dir + "/metrics.prom";
    const Report rep = run_campaign(small_fuzz_spec(), dir, opts);
    EXPECT_TRUE(rep.complete());
    const std::string prom = slurp(opts.prom_out);
    ASSERT_FALSE(prom.empty());
    // Heartbeat snapshots include the volatile telemetry series.
    EXPECT_NE(prom.find("# TYPE campaign_cell_wall_ms histogram"), std::string::npos);
    EXPECT_NE(prom.find("campaign_cell_wall_ms_count"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CampaignTelemetry, StatusBreaksDownQuarantineReasons) {
    Spec spec = small_fuzz_spec(4);
    spec.sabotage.crash_cell = 3;
    spec.sabotage.crash_times = 2; // both attempts throw -> quarantine: crash
    const std::string dir = scratch("status_breakdown");
    const Report rep = run_campaign(spec, dir, fast_opts());
    EXPECT_TRUE(rep.complete());
    const Status st = campaign_status(dir);
    EXPECT_EQ(st.cells_quarantined, 1u);
    EXPECT_EQ(st.quarantined_crash, 1u);
    EXPECT_EQ(st.quarantined_timeout, 0u);
    const std::string text = st.to_string();
    EXPECT_NE(text.find("quarantine reasons: timeout=0 crash=1"), std::string::npos);
    EXPECT_NE(text.find("% accounted"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---- crash-recovery harness: SIGKILL a real subprocess ------------------

#ifdef SWSEC_TOOL

/// Launch `swsec campaign run` as a child process and SIGKILL it after
/// `delay_ms`.  Returns true if the kill landed before the child exited.
bool run_and_kill(const std::vector<std::string>& args, std::uint64_t delay_ms) {
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<char*> argv;
        static const std::string tool = SWSEC_TOOL;
        argv.push_back(const_cast<char*>(tool.c_str()));
        for (const auto& a : args) {
            argv.push_back(const_cast<char*>(a.c_str()));
        }
        argv.push_back(nullptr);
        // Quiet the child; its stdout/stderr are irrelevant here.
        ::freopen("/dev/null", "w", stdout);
        ::freopen("/dev/null", "w", stderr);
        ::execv(tool.c_str(), argv.data());
        ::_exit(127);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    const bool killed = ::kill(pid, SIGKILL) == 0;
    int status = 0;
    ::waitpid(pid, &status, 0);
    return killed && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

TEST(CampaignCrashRecovery, SigkillAtSeededPointsThenResumeIsByteIdentical) {
    // Reference: the same spec run uninterrupted, in-process.
    Spec spec;
    spec.kind = Kind::Fuzz;
    spec.seeds = 40;
    const std::string ref = scratch("kill_ref");
    (void)run_campaign(spec, ref, fast_opts());
    const std::string ref_report = slurp(ref + "/report.jsonl");
    const std::string ref_summary = slurp(ref + "/summary.txt");
    ASSERT_FALSE(ref_report.empty());

    // Seeded, randomized kill points: different WAL cut positions each
    // round, reproducible across reruns of the suite.
    std::mt19937 rng(20260809);
    std::uniform_int_distribution<std::uint64_t> delay(30, 350);
    for (int round = 0; round < 3; ++round) {
        const std::string dir = scratch("kill_" + std::to_string(round));
        const bool killed = run_and_kill(
            {"campaign", "run", "--kind", "fuzz", "--dir", dir, "--seeds", "40", "--jobs",
             "2", "--backoff-ms", "1"},
            delay(rng));
        // Whether or not the kill landed mid-run (the child may have
        // finished first — or died before even the manifest hit disk),
        // driving the same spec at the directory converges on the
        // reference bytes.
        const Report rep = std::filesystem::exists(dir + "/manifest.json")
                               ? resume_campaign(dir, fast_opts())
                               : run_campaign(spec, dir, fast_opts());
        EXPECT_TRUE(rep.complete()) << "round " << round;
        EXPECT_EQ(slurp(dir + "/report.jsonl"), ref_report)
            << "round " << round << " killed=" << killed
            << " resumed=" << rep.cells_resumed << " dropped=" << rep.wal_lines_dropped;
        EXPECT_EQ(slurp(dir + "/summary.txt"), ref_summary) << "round " << round;
        std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(ref);
}

#endif // SWSEC_TOOL

} // namespace

// Appended: the fuzz-evolve campaign kind (PR8) — spec plumbing and the
// checkpoint/resume guarantee over evolutionary-island cells.
namespace {

using namespace swsec;
using namespace swsec::campaign;

Spec small_evolve_spec(int islands = 3) {
    Spec s;
    s.kind = Kind::FuzzEvolve;
    s.seeds = islands;
    s.evolve_execs = 16;
    s.evolve_init = 8;
    return s;
}

TEST(CampaignFuzzEvolve, SpecRoundTripsAndNamesItsKind) {
    const Spec s = small_evolve_spec();
    const Spec r = Spec::from_json(s.to_json());
    EXPECT_EQ(r.kind, Kind::FuzzEvolve);
    EXPECT_EQ(r.evolve_execs, 16);
    EXPECT_EQ(r.evolve_init, 8);
    EXPECT_EQ(r.to_json(), s.to_json());
    EXPECT_EQ(r.id(), s.id());
    EXPECT_EQ(s.cell_count(), 3u);
    Kind out = Kind::Matrix;
    EXPECT_TRUE(kind_from_name("fuzz-evolve", out));
    EXPECT_EQ(out, Kind::FuzzEvolve);
    // The island budget is part of the campaign identity.
    Spec b = s;
    b.evolve_execs = 17;
    EXPECT_NE(b.id(), s.id());
}

TEST(CampaignFuzzEvolve, InterruptedRunResumesByteIdentical) {
    const Spec spec = small_evolve_spec();
    const std::string ref = scratch("evolve_ref");
    const std::string cut = scratch("evolve_cut");
    const Report full = run_campaign(spec, ref, fast_opts());
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(full.cells_completed, 3u);
    // Each cell payload is one evolve report for an independent island.
    const std::string report = slurp(ref + "/report.jsonl");
    EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 3);
    EXPECT_NE(report.find("\"schema\":\"swsec-evolve-v1\""), std::string::npos);
    EXPECT_NE(report.find("\"buckets\":"), std::string::npos);

    Options interrupted = fast_opts();
    interrupted.max_cells = 1;
    const Report partial = run_campaign(spec, cut, interrupted);
    EXPECT_FALSE(partial.complete());
    const Report resumed = resume_campaign(cut, fast_opts());
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.cells_resumed, 1u);
    EXPECT_EQ(slurp(cut + "/report.jsonl"), report);
    EXPECT_EQ(slurp(cut + "/summary.txt"), slurp(ref + "/summary.txt"));
    std::filesystem::remove_all(ref);
    std::filesystem::remove_all(cut);
}

// An island evaluates generated programs only, and none of them reaches
// the machine-wide image cache, which holds scenario images only.
TEST(CampaignFuzzEvolve, IslandsLeaveTheImageCacheAlone) {
    const std::string dir = scratch("evolve_cache");
    const std::size_t before = core::image_cache_size();
    const Report r = run_campaign(small_evolve_spec(2), dir, fast_opts());
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(core::image_cache_size(), before);
    std::filesystem::remove_all(dir);
}

} // namespace
