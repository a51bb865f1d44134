#include "statecont/pin_vault.hpp"

namespace swsec::statecont {

namespace {

Blob encode(std::int32_t pin, std::int32_t secret, std::int32_t tries) {
    Blob b;
    for (const std::int32_t v : {pin, secret, tries}) {
        const auto u = static_cast<std::uint32_t>(v);
        b.push_back(static_cast<std::uint8_t>(u & 0xff));
        b.push_back(static_cast<std::uint8_t>((u >> 8) & 0xff));
        b.push_back(static_cast<std::uint8_t>((u >> 16) & 0xff));
        b.push_back(static_cast<std::uint8_t>((u >> 24) & 0xff));
    }
    return b;
}

std::int32_t word_at(const Blob& b, std::size_t i) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(b[4 * i]) |
                                     (static_cast<std::uint32_t>(b[4 * i + 1]) << 8) |
                                     (static_cast<std::uint32_t>(b[4 * i + 2]) << 16) |
                                     (static_cast<std::uint32_t>(b[4 * i + 3]) << 24));
}

} // namespace

PinVault::PinVault(StateProtocol& proto, std::int32_t pin, std::int32_t secret)
    : proto_(proto), pin_(pin), secret_(secret) {
    const LoadResult r = proto_.load();
    switch (r.status) {
    case LoadStatus::Ok:
        pin_ = word_at(r.state, 0);
        secret_ = word_at(r.state, 1);
        tries_left_ = word_at(r.state, 2);
        break;
    case LoadStatus::Empty:
        persist(); // first boot: commit the initial state
        break;
    case LoadStatus::Tampered:
    case LoadStatus::Rollback:
        // Tamper-evident halt: a module that cannot trust its storage must
        // not serve (otherwise the rollback attack wins by definition).
        serving_ = false;
        break;
    }
}

void PinVault::persist() { proto_.save(encode(pin_, secret_, tries_left_)); }

std::optional<std::int32_t> PinVault::try_pin(std::int32_t candidate) {
    if (!serving_ || tries_left_ <= 0) {
        return std::nullopt;
    }
    if (candidate == pin_) {
        tries_left_ = kMaxTries;
        persist();
        return secret_;
    }
    --tries_left_;
    persist();
    return std::nullopt;
}

} // namespace swsec::statecont
