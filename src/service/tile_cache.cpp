#include "service/tile_cache.hpp"

#include "core/validate.hpp"

namespace rrs {

namespace {

/// Smallest power of two ≥ n (n clamped to ≥ 1).
std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) {
        p <<= 1;
    }
    return p;
}

/// Bytes one encoded body holds.
std::size_t body_bytes(const EncodedBody& body) noexcept {
    std::size_t bytes = body.bytes.size();
    for (const auto& [name, value] : body.headers) {
        bytes += name.size() + value.size();
    }
    return bytes;
}

}  // namespace

TileCache::TileCache(std::size_t byte_budget, std::size_t shards)
    : byte_budget_(byte_budget) {
    check_positive_count(static_cast<std::int64_t>(byte_budget), "byte_budget",
                         {"TileCache"});
    check_positive_count(static_cast<std::int64_t>(shards), "shards", {"TileCache"});
    const std::size_t n = round_up_pow2(shards);
    shard_mask_ = n - 1;
    shard_budget_ = byte_budget / n;
    shards_ = std::vector<Shard>(n);
    for (Shard& s : shards_) {
        s.budget.set_budget(shard_budget_);
    }
}

TilePtr TileCache::find(const TileAddress& address) {
    Shard& s = shard_of(address);
    std::lock_guard lock(s.mutex);
    const auto it = s.index.find(address);
    if (it == s.index.end()) {
        ++s.misses;
        return nullptr;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
    return it->second->tile;
}

void TileCache::insert(const TileAddress& address, TilePtr tile) {
    if (!tile) {
        return;
    }
    const std::size_t bytes = tile_bytes(*tile);
    Shard& s = shard_of(address);
    std::lock_guard lock(s.mutex);
    const auto it = s.index.find(address);
    if (it != s.index.end()) {
        // Replace in place (same address ⇒ bit-identical payload in normal
        // operation, but replacing keeps the cache correct regardless); the
        // bodies encoded from the old payload go with it.
        s.budget.release(it->second->bytes);
        s.body_bytes -= it->second->bytes - tile_bytes(*it->second->tile);
        it->second->tile = std::move(tile);
        it->second->bodies = {};
        it->second->bytes = bytes;
        s.budget.charge(bytes);
        s.lru.splice(s.lru.begin(), s.lru, it->second);
    } else {
        s.lru.push_front(Entry{address, std::move(tile), {}, bytes});
        s.index.emplace(address, s.lru.begin());
        s.budget.charge(bytes);
        ++s.insertions;
    }
    // Make room by dropping bodies first, coldest entry first: a dropped
    // body costs a later encode, an evicted tile a regeneration.
    for (auto e = s.lru.rbegin(); s.budget.over() && s.body_bytes > 0 && e != s.lru.rend();
         ++e) {
        const std::size_t freed = e->bytes - tile_bytes(*e->tile);
        e->bodies = {};
        e->bytes -= freed;
        s.body_bytes -= freed;
        s.budget.release(freed);
    }
    // Then evict from the cold end until this shard fits its budget share.
    // The just-inserted entry sits at the hot end, but is itself evicted when
    // it alone exceeds the shard budget — the budget is a hard bound.
    s.evictions += s.budget.evict_until_fit([&]() -> std::size_t {
        if (s.lru.empty()) {
            return 0;
        }
        const Entry& victim = s.lru.back();
        const std::size_t freed = victim.bytes;
        s.body_bytes -= freed - tile_bytes(*victim.tile);
        s.index.erase(victim.address);
        s.lru.pop_back();
        return freed;
    });
}

EncodedBodyPtr TileCache::find_body(const TileAddress& address, std::size_t slot) const {
    RRS_CHECK(slot < kBodySlots, "TileCache", "body slot out of range");
    const Shard& s = shard_of(address);
    std::lock_guard lock(s.mutex);
    const auto it = s.index.find(address);
    return it == s.index.end() ? nullptr : it->second->bodies[slot];
}

void TileCache::attach_body(const TileAddress& address, std::size_t slot,
                            EncodedBodyPtr body) {
    RRS_CHECK(slot < kBodySlots, "TileCache", "body slot out of range");
    if (!body) {
        return;
    }
    const std::size_t bytes = body_bytes(*body);
    Shard& s = shard_of(address);
    std::lock_guard lock(s.mutex);
    const auto it = s.index.find(address);
    // A body is kept only in room the shard has spare: it saves an encode,
    // while a tile it pushed out would cost a regeneration.
    if (it == s.index.end() || it->second->bodies[slot] != nullptr ||
        s.budget.used() + bytes > shard_budget_) {
        return;
    }
    it->second->bodies[slot] = std::move(body);
    it->second->bytes += bytes;
    s.body_bytes += bytes;
    s.budget.charge(bytes);
}

void TileCache::clear() {
    for (Shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        s.lru.clear();
        s.index.clear();
        s.budget.reset();
        s.body_bytes = 0;
    }
}

TileCache::Stats TileCache::stats() const {
    Stats out;
    for (const Shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        out.hits += s.hits;
        out.misses += s.misses;
        out.insertions += s.insertions;
        out.evictions += s.evictions;
        out.bytes += s.budget.used();
        out.tiles += s.lru.size();
    }
    return out;
}

}  // namespace rrs
