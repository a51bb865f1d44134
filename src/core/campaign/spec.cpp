#include "core/campaign/spec.hpp"

#include <charconv>
#include <utility>

#include "common/error.hpp"
#include "core/attack_lab.hpp"
#include "core/defense.hpp"
#include "crypto/sha256.hpp"

namespace swsec::campaign {

const char* kind_name(Kind k) noexcept {
    switch (k) {
    case Kind::Matrix: return "matrix";
    case Kind::FaultSweep: return "fault-sweep";
    case Kind::Fuzz: return "fuzz";
    case Kind::FuzzEvolve: return "fuzz-evolve";
    }
    return "?";
}

bool kind_from_name(const std::string& name, Kind& out) noexcept {
    for (const Kind k : {Kind::Matrix, Kind::FaultSweep, Kind::Fuzz, Kind::FuzzEvolve}) {
        if (name == kind_name(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::uint64_t Spec::cell_count() const {
    const std::uint64_t lattice =
        core::all_attacks().size() * core::standard_defenses().size();
    switch (kind) {
    case Kind::Matrix: return static_cast<std::uint64_t>(draws) * lattice;
    case Kind::FaultSweep: return lattice;
    case Kind::Fuzz: return static_cast<std::uint64_t>(seeds);
    case Kind::FuzzEvolve: return static_cast<std::uint64_t>(seeds);
    }
    return 0;
}

std::string Spec::to_json() const {
    std::string out = "{\"schema\":\"swsec-campaign-spec-v1\"";
    out += ",\"kind\":\"";
    out += kind_name(kind);
    out += "\",\"victim_seed\":" + std::to_string(victim_seed);
    out += ",\"attacker_seed\":" + std::to_string(attacker_seed);
    out += ",\"draws\":" + std::to_string(draws);
    out += ",\"fault_seed\":" + std::to_string(fault_seed);
    out += ",\"windows_per_class\":" + std::to_string(windows_per_class);
    out += ",\"seed_base\":" + std::to_string(seed_base);
    out += ",\"seeds\":" + std::to_string(seeds);
    out += ",\"evolve_execs\":" + std::to_string(evolve_execs);
    out += ",\"evolve_init\":" + std::to_string(evolve_init);
    out += ",\"sabotage\":{\"hang_cell\":" + std::to_string(sabotage.hang_cell);
    out += ",\"crash_cell\":" + std::to_string(sabotage.crash_cell);
    out += ",\"crash_times\":" + std::to_string(sabotage.crash_times);
    out += "}}";
    return out;
}

namespace {

// Minimal field extractors for the fixed-shape documents this module itself
// produces (no JSON library in the repo; values are numbers or escape-free
// strings).  Each throws on a missing key so a hand-edited manifest fails
// loudly instead of silently defaulting.
std::size_t find_key(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = json.find(needle);
    if (pos == std::string::npos) {
        throw Error("campaign spec: missing field \"" + key + "\"");
    }
    return pos + needle.size();
}

/// The number after `key`, parsed by std::from_chars: a value that does
/// not fit T (a negative one into an unsigned field, or one past the
/// field's range) is rejected, never wrapped.
template <class T>
T get_number(const std::string& json, const std::string& key) {
    const std::size_t p = find_key(json, key);
    T v{};
    const std::errc ec = std::from_chars(json.data() + p, json.data() + json.size(), v).ec;
    if (ec == std::errc::result_out_of_range) {
        throw Error("campaign spec: field \"" + key + "\" is out of range");
    }
    if (ec != std::errc()) {
        throw Error("campaign spec: field \"" + key + "\" is not a number");
    }
    return v;
}

std::string get_string(const std::string& json, const std::string& key) {
    std::size_t p = find_key(json, key);
    if (p >= json.size() || json[p] != '"') {
        throw Error("campaign spec: field \"" + key + "\" is not a string");
    }
    ++p;
    const std::size_t end = json.find('"', p);
    if (end == std::string::npos) {
        throw Error("campaign spec: unterminated string for \"" + key + "\"");
    }
    return json.substr(p, end - p);
}

} // namespace

Spec Spec::from_json(const std::string& json) {
    if (get_string(json, "schema") != "swsec-campaign-spec-v1") {
        throw Error("campaign spec: unknown schema");
    }
    Spec s;
    if (!kind_from_name(get_string(json, "kind"), s.kind)) {
        throw Error("campaign spec: unknown kind \"" + get_string(json, "kind") + "\"");
    }
    s.victim_seed = get_number<std::uint64_t>(json, "victim_seed");
    s.attacker_seed = get_number<std::uint64_t>(json, "attacker_seed");
    s.draws = get_number<int>(json, "draws");
    s.fault_seed = get_number<std::uint64_t>(json, "fault_seed");
    s.windows_per_class = get_number<int>(json, "windows_per_class");
    s.seed_base = get_number<std::uint64_t>(json, "seed_base");
    s.seeds = get_number<int>(json, "seeds");
    s.evolve_execs = get_number<int>(json, "evolve_execs");
    s.evolve_init = get_number<int>(json, "evolve_init");
    s.sabotage.hang_cell = get_number<std::int64_t>(json, "hang_cell");
    s.sabotage.crash_cell = get_number<std::int64_t>(json, "crash_cell");
    s.sabotage.crash_times = get_number<int>(json, "crash_times");
    s.validate();
    return s;
}

void Spec::validate() const {
    const std::pair<const char*, int> counts[] = {
        {"draws", draws},
        {"seeds", seeds},
        {"windows_per_class", windows_per_class},
        {"evolve_execs", evolve_execs},
        {"evolve_init", evolve_init},
        {"crash_times", sabotage.crash_times},
    };
    for (const auto& [name, value] : counts) {
        if (value < 0) {
            throw Error(std::string("campaign spec: ") + name + " must not be negative");
        }
    }
    if (sabotage.hang_cell < -1 || sabotage.crash_cell < -1) {
        throw Error("campaign spec: a sabotage cell is a cell index or -1 (none)");
    }
}

std::string Spec::id() const {
    return crypto::to_hex(crypto::Sha256::hash(to_json())).substr(0, 16);
}

std::string Spec::cell_coords_json(std::uint64_t cell) const {
    const auto& attacks = core::all_attacks();
    const auto& defenses = core::standard_defenses();
    const std::uint64_t lattice = attacks.size() * defenses.size();
    std::string out = "{\"kind\":\"";
    out += kind_name(kind);
    out += "\",\"cell\":" + std::to_string(cell);
    switch (kind) {
    case Kind::Matrix: {
        const std::uint64_t d = cell / lattice;
        const std::uint64_t r = cell % lattice;
        out += ",\"draw\":" + std::to_string(d);
        out += ",\"attack\":\"" + core::attack_name(attacks[r / defenses.size()]) + "\"";
        out += ",\"defense\":\"" + defenses[r % defenses.size()].name + "\"";
        out += ",\"victim_seed\":" + std::to_string(victim_seed + d);
        out += ",\"attacker_seed\":" + std::to_string(attacker_seed + d);
        break;
    }
    case Kind::FaultSweep:
        out += ",\"attack\":\"" + core::attack_name(attacks[cell / defenses.size()]) + "\"";
        out += ",\"defense\":\"" + defenses[cell % defenses.size()].name + "\"";
        out += ",\"fault_seed\":" + std::to_string(fault_seed);
        out += ",\"windows_per_class\":" + std::to_string(windows_per_class);
        break;
    case Kind::Fuzz:
        out += ",\"seed\":" + std::to_string(seed_base + cell);
        break;
    case Kind::FuzzEvolve:
        out += ",\"seed\":" + std::to_string(seed_base + cell);
        out += ",\"execs\":" + std::to_string(evolve_execs);
        out += ",\"init\":" + std::to_string(evolve_init);
        break;
    }
    out += "}";
    return out;
}

} // namespace swsec::campaign
