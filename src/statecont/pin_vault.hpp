// The paper's running example as a persistent module: a PIN-guarded secret
// with a lockout counter whose state survives restarts through a
// StateProtocol.  The rollback attack of Section IV-C is: stop the module,
// replay an earlier stored state (with a fresh tries_left), and continue
// brute-forcing.
#pragma once

#include <cstdint>
#include <optional>

#include "statecont/protocol.hpp"

namespace swsec::statecont {

class PinVault {
public:
    static constexpr int kMaxTries = 3;

    /// Boot the vault: recover state through `proto`, or initialise fresh
    /// state with the given PIN and secret on first boot.  A Rollback
    /// result from load() leaves the vault refusing service (tamper-evident
    /// halt).
    PinVault(StateProtocol& proto, std::int32_t pin, std::int32_t secret);

    /// One authentication attempt; persists the updated state.
    /// Returns the secret on success, nullopt on wrong PIN or lockout.
    [[nodiscard]] std::optional<std::int32_t> try_pin(std::int32_t candidate);

    [[nodiscard]] int tries_left() const noexcept { return tries_left_; }
    [[nodiscard]] bool serving() const noexcept { return serving_; }

private:
    void persist();

    StateProtocol& proto_;
    std::int32_t pin_;
    std::int32_t secret_;
    int tries_left_ = kMaxTries;
    bool serving_ = true;
};

} // namespace swsec::statecont
