#include "core/image_cache.hpp"

#include <mutex>
#include <unordered_map>

namespace swsec::core {

namespace {

struct Cache {
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<const objfmt::Image>> images;
    std::uint64_t hits = 0;
};

Cache& cache() {
    static Cache c;
    return c;
}

} // namespace

std::shared_ptr<const objfmt::Image> cached_compile(const std::string& source,
                                                    const cc::CompilerOptions& opts) {
    const std::string key = cc::compiler_options_key(opts) + '\x1f' + source;
    Cache& c = cache();
    {
        const std::lock_guard<std::mutex> lock(c.mutex);
        const auto it = c.images.find(key);
        if (it != c.images.end()) {
            ++c.hits;
            return it->second;
        }
    }
    // Compile outside the lock: a racing thread may duplicate the work, but
    // compilation is deterministic, so whichever insert wins is correct.
    auto img = std::make_shared<const objfmt::Image>(cc::compile_program({source}, opts));
    const std::lock_guard<std::mutex> lock(c.mutex);
    // Lost the race: keep the incumbent so every caller shares one image.
    return c.images.emplace(key, std::move(img)).first->second;
}

void clear_image_cache() {
    cc::clear_runtime_memo();
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.images.clear();
    c.hits = 0;
}

std::size_t image_cache_size() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.images.size();
}

std::uint64_t image_cache_hits() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.hits;
}

} // namespace swsec::core
