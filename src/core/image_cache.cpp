#include "core/image_cache.hpp"

#include <list>
#include <mutex>
#include <unordered_map>

namespace swsec::core {

namespace {

struct Cache {
    std::mutex mutex;
    // Recency list, front = most recently used; the map points into it so a
    // hit is an O(1) splice and an eviction pops the back.
    using Entry = std::pair<std::string, std::shared_ptr<const objfmt::Image>>;
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    // 512 images (~a few hundred KB each) comfortably covers every scenario
    // x defense pair plus a fuzz corpus working set, while bounding a
    // million-cell campaign to a fixed footprint.
    std::size_t capacity = 512;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;

    /// Caller holds the mutex.
    void evict_over_capacity() {
        while (capacity != 0 && lru.size() > capacity) {
            index.erase(lru.back().first);
            lru.pop_back();
            ++evictions;
        }
    }
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
        const auto it = c.index.find(key);
        if (it != c.index.end()) {
            ++c.hits;
            c.lru.splice(c.lru.begin(), c.lru, it->second); // refresh recency
            return it->second->second;
        }
    }
    // Compile outside the lock: a racing thread may duplicate the work, but
    // compilation is deterministic, so whichever insert wins is correct.
    auto img = std::make_shared<const objfmt::Image>(cc::compile_program({source}, opts));
    const std::lock_guard<std::mutex> lock(c.mutex);
    const auto it = c.index.find(key);
    if (it != c.index.end()) {
        // Lost the race; keep the incumbent so every caller shares one image.
        c.lru.splice(c.lru.begin(), c.lru, it->second);
        return it->second->second;
    }
    c.lru.emplace_front(key, std::move(img));
    c.index.emplace(key, c.lru.begin());
    c.evict_over_capacity();
    return c.lru.front().second;
}

void clear_image_cache() {
    cc::clear_runtime_memo();
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.lru.clear();
    c.index.clear();
    c.hits = 0;
    c.evictions = 0;
}

std::size_t set_image_cache_capacity(std::size_t max_images) {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    const std::size_t prev = c.capacity;
    c.capacity = max_images;
    c.evict_over_capacity();
    return prev;
}

std::size_t image_cache_capacity() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.capacity;
}

std::size_t image_cache_size() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.lru.size();
}

std::uint64_t image_cache_hits() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.hits;
}

std::uint64_t image_cache_evictions() {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mutex);
    return c.evictions;
}

} // namespace swsec::core
