#pragma once

/// \file scene.hpp
/// Text scene descriptions for the `rrsgen` command-line generator: a
/// small INI-style format declaring spectra, a region map, the output
/// lattice window, and output files.  Parsing is separated from rendering
/// so the format is unit-testable without touching the filesystem.
///
/// Example:
///
///     seed = 42
///     kernel_grid = 1024 1024
///     region = -512 -512 1024 1024
///     tail_eps = 1e-6
///     output = surface.pgm surface.npy
///
///     [spectrum field]
///     family = gaussian
///     h = 1.0
///     cl = 50 50
///
///     [spectrum pond]
///     family = exponential
///     h = 0.2
///     cl = 50
///
///     [map]
///     type = circle
///     center = 0 0
///     radius = 500
///     transition = 100
///     inside = pond
///     outside = field
///
/// Map types: homogeneous (spectrum=), circle (center/radius/transition/
/// inside/outside), quadrant (center/extent/transition/q1..q4), plates
/// (transition, repeated `plate = x0 x1 y0 y1 NAME`), points (transition,
/// repeated `point = x y NAME`).  Spectrum families: gaussian,
/// exponential, power-law (with `N = ...`); optional `rotate = radians`.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/grid_spec.hpp"
#include "core/health.hpp"
#include "core/inhomogeneous.hpp"
#include "core/region_map.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"

namespace rrs {

/// A parsed, fully-built scene ready to render.
struct Scene {
    std::uint64_t seed = 0;
    GridSpec kernel_grid = GridSpec::unit_spacing(512, 512);
    Rect region{0, 0, 512, 512};
    double tail_eps = 1e-6;
    double origin_x = 0.0;
    double origin_y = 0.0;
    /// Numeric health policy for rendering (`health = throw|report|ignore`;
    /// the rrsgen `--health` flag overrides it).
    HealthPolicy health = HealthPolicy::kReport;
    /// Kernel engine (`engine = auto|direct|fft|separable`; the rrsgen
    /// `--engine` flag overrides it).  Part of the scene's fingerprint.
    KernelEngine engine = KernelEngine::kAuto;
    RegionMapPtr map;                  ///< built blending map (never null)
    std::vector<std::string> outputs;  ///< format chosen by extension
};

/// Parse a scene description; throws SceneError with a line-numbered
/// message on malformed input.
Scene parse_scene(std::istream& in);

/// Convenience overload for in-memory text.
Scene parse_scene_text(const std::string& text);

/// Parse errors carry the offending 1-based line number.  Part of the
/// library error taxonomy (error.hpp): a SceneError IS-A ConfigError whose
/// outermost context frame is "scene:<line>".
class SceneError : public ConfigError {
public:
    SceneError(std::size_t line, const std::string& message);

    /// Wrap an inner error's context chain under the "scene:<line>" frame.
    SceneError(std::size_t line, const std::string& message, ErrorContext inner);

    std::size_t line() const noexcept { return line_; }

private:
    std::size_t line_;
};

/// Build the scene's generator (inhomogeneous convolution method) without
/// rendering anything — the entry point for random-access serving
/// (service/tile_service.hpp) where the scene's `region` is only a default
/// viewport, not the extent of the surface.
InhomogeneousGenerator make_scene_generator(const Scene& scene);

/// Generate the scene's surface (inhomogeneous convolution method).
Array2D<double> render_scene(const Scene& scene);

/// Write `surface` to every scene output; the extension selects the
/// writer: .pgm, .csv, .npy, or .dat (gnuplot).  Throws on unknown
/// extensions.
void write_scene_outputs(const Scene& scene, const Array2D<double>& surface);

}  // namespace rrs
