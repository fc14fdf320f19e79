#pragma once

/// \file rect.hpp
/// Integer rectangles on the output lattice.  Used by the streaming
/// convolution generator ("arbitrarily long or wide RRSs by successive
/// computations", paper §2.4) and by the plate-oriented region maps (§3.1).

#include <algorithm>
#include <cstdint>

namespace rrs {

/// Half-open axis-aligned rectangle of lattice points:
/// x in [x0, x0+nx), y in [y0, y0+ny).  Origin may be negative — streamed
/// surfaces extend in any direction from a global origin.
struct Rect {
    std::int64_t x0 = 0;
    std::int64_t y0 = 0;
    std::int64_t nx = 0;
    std::int64_t ny = 0;

    std::int64_t x1() const noexcept { return x0 + nx; }
    std::int64_t y1() const noexcept { return y0 + ny; }
    std::int64_t area() const noexcept { return nx * ny; }
    bool empty() const noexcept { return nx <= 0 || ny <= 0; }

    bool contains(std::int64_t x, std::int64_t y) const noexcept {
        return x >= x0 && x < x1() && y >= y0 && y < y1();
    }

    friend bool operator==(const Rect&, const Rect&) = default;
};

/// Intersection of two rectangles (possibly empty).
inline Rect intersect(const Rect& a, const Rect& b) noexcept {
    const std::int64_t x0 = std::max(a.x0, b.x0);
    const std::int64_t y0 = std::max(a.y0, b.y0);
    const std::int64_t x1 = std::min(a.x1(), b.x1());
    const std::int64_t y1 = std::min(a.y1(), b.y1());
    return Rect{x0, y0, std::max<std::int64_t>(0, x1 - x0), std::max<std::int64_t>(0, y1 - y0)};
}

/// Grow a rectangle by `rx`/`ry` points on every side (the noise halo a
/// convolution tile needs beyond its output extent).
inline Rect dilate(const Rect& r, std::int64_t rx, std::int64_t ry) noexcept {
    return Rect{r.x0 - rx, r.y0 - ry, r.nx + 2 * rx, r.ny + 2 * ry};
}

/// Smallest rectangle containing both `a` and `b` (one noise window that
/// covers several convolution halos).
inline Rect hull(const Rect& a, const Rect& b) noexcept {
    const std::int64_t x0 = std::min(a.x0, b.x0);
    const std::int64_t y0 = std::min(a.y0, b.y0);
    return Rect{x0, y0, std::max(a.x1(), b.x1()) - x0, std::max(a.y1(), b.y1()) - y0};
}

}  // namespace rrs
