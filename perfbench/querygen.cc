#include "querygen.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/random.h"

namespace perfbench {

namespace {

// Fixed streams so adding a draw to one generator never shifts another.
enum Stream : uint64_t {
  kScanStream = 1,
  kFanoutStream = 2,
  kRotationStream = 3,
  kSimStream = 4,
};

// `pick` distinct values of [0, domain), ascending.
std::vector<uint32_t> Pick(scalewall::Rng& rng, uint32_t domain,
                           uint32_t pick) {
  std::vector<uint32_t> values(domain);
  std::iota(values.begin(), values.end(), 0u);
  for (uint32_t i = 0; i < pick; ++i) {
    std::swap(values[i], values[i + rng.NextBounded(domain - i)]);
  }
  values.resize(pick);
  std::sort(values.begin(), values.end());
  return values;
}

std::string InList(const std::vector<uint32_t>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + ")";
}

std::string Num(uint64_t v) { return std::to_string(v); }

// sim_mixed's window shape (see MakeSimScript).
constexpr int kDashboards = 32;
constexpr double kZipfS = 1.1;
constexpr double kDashboardShare = 0.9;
constexpr int kQueriesPerWindow = 250;

}  // namespace

std::vector<GeneratedQuery> ScanQueries(uint64_t seed, int count) {
  scalewall::Rng rng = scalewall::Rng(seed).Fork(kScanStream);
  // Ranges are aligned to the schema's brick ranges (day 8, region 2,
  // product 16), so every instance of a template prunes the same number
  // of bricks and scans the same share of the rows.
  std::vector<GeneratedQuery> out;
  for (int i = 0; i < count; ++i) {
    GeneratedQuery q;
    switch (i % 4) {
      case 0: {  // filtered group-by: 2 of 4 day ranges
        const uint64_t a = 8 * rng.NextBounded(3);
        q.sql = "SELECT region, SUM(spend), COUNT(clicks) FROM ads WHERE day "
                "BETWEEN " + Num(a) + " AND " + Num(a + 15) +
                " GROUP BY region";
        break;
      }
      case 1: {  // IN-list: the regions of 2 of 4 region ranges
        std::vector<uint32_t> regions;
        for (uint32_t range : Pick(rng, 4, 2)) {
          regions.push_back(2 * range);
          regions.push_back(2 * range + 1);
        }
        q.sql = "SELECT day, SUM(clicks), MAX(spend) FROM ads WHERE region "
                "IN " + InList(regions) + " GROUP BY day";
        break;
      }
      case 2: {  // replicated join against product_dim: 2 of 4 day ranges
        const uint64_t d = 8 * rng.NextBounded(3);
        q.sql = "SELECT product_dim.category, SUM(spend), COUNT(clicks) "
                "FROM ads JOIN product_dim ON product WHERE day BETWEEN " +
                Num(d) + " AND " + Num(d + 15) +
                " GROUP BY product_dim.category";
        break;
      }
      default: {  // top-k: 2 of 4 product ranges
        const uint64_t p = 16 * rng.NextBounded(3);
        q.sql = "SELECT product, SUM(spend), MIN(clicks) FROM ads WHERE "
                "product BETWEEN " + Num(p) + " AND " + Num(p + 31) +
                " GROUP BY product ORDER BY SUM(spend) DESC LIMIT 10";
        break;
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<GeneratedQuery> FanoutQueries(uint64_t seed, int count) {
  scalewall::Rng rng = scalewall::Rng(seed).Fork(kFanoutStream);
  // SUM of the integral clicks, COUNT, MIN/MAX: exact in any merge order.
  static const char* kAggs[] = {"SUM(clicks), COUNT(*), MAX(spend)",
                                "SUM(clicks), MIN(spend), MAX(clicks)"};
  // Each filter keeps 3 of the 4 brick ranges of one dimension; templates
  // and merge topologies rotate by index, so every run has the same mix
  // and the seed only moves the filters.
  std::vector<GeneratedQuery> out;
  for (int i = 0; i < count; ++i) {
    std::string filter;
    switch (i % 3) {
      case 0: {
        const uint64_t a = 8 * rng.NextBounded(2);
        filter = "day BETWEEN " + Num(a) + " AND " + Num(a + 23);
        break;
      }
      case 1: {
        std::vector<uint32_t> regions;
        for (uint32_t range : Pick(rng, 4, 3)) {
          regions.push_back(2 * range);
          regions.push_back(2 * range + 1);
        }
        filter = "region IN " + InList(regions);
        break;
      }
      default: {
        const uint64_t p = 16 * rng.NextBounded(2);
        filter = "product BETWEEN " + Num(p) + " AND " + Num(p + 47);
        break;
      }
    }
    GeneratedQuery q;
    q.sql = std::string("SELECT day, region, product, ") +
            kAggs[rng.NextBounded(2)] + " FROM ads WHERE " + filter +
            " GROUP BY day, region, product";
    // Flat, or a two-level tree (64 -> 8 -> 1). A fan-in of 4 makes a
    // three-level tree whose p95 sits 31% above its median, against 16%
    // at fan-in 8: the extra hop mostly adds tail.
    q.merge_fanin = i % 2 == 0 ? 1 : 8;
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<size_t> Rotation(uint64_t seed, size_t distinct, size_t length) {
  scalewall::Rng rng = scalewall::Rng(seed).Fork(kRotationStream);
  std::vector<size_t> pass(distinct);
  std::iota(pass.begin(), pass.end(), size_t{0});
  std::vector<size_t> out;
  out.reserve(length);
  while (out.size() < length) {
    for (size_t i = distinct; i > 1; --i) {
      std::swap(pass[i - 1], pass[rng.NextBounded(i)]);
    }
    for (size_t i = 0; i < distinct && out.size() < length; ++i) {
      out.push_back(pass[i]);
    }
  }
  return out;
}

SimScript MakeSimScript(uint64_t seed, int windows) {
  scalewall::Rng rng = scalewall::Rng(seed).Fork(kSimStream);
  SimScript script;
  // Every dashboard and ad-hoc query keeps the same share of the rows and
  // returns at most 8 rows, so a seed changes which queries repeat but
  // not what a hit or a miss costs.
  // Dimensions with their brick range sizes.
  static const char* kDims[] = {"day", "product", "region"};
  static const int kWidth[] = {8, 16, 2};
  static const char* kAggs[] = {
      "SUM(spend), COUNT(clicks)", "MAX(spend), MIN(clicks)",
      "AVG(spend), SUM(clicks)", "SUM(spend), MAX(clicks)"};
  // Dashboards: the panels a team reloads all day, one aligned half of a
  // dimension each. A repeat is a cache hit until an ingest or a
  // migration bumps an epoch.
  auto panel = [](const char* group, const char* aggs,
                  const std::string& filter) {
    const std::string first(aggs, std::strchr(aggs, ',') - aggs);
    return std::string("SELECT ") + group + ", " + aggs + " FROM ads WHERE " +
           filter + " GROUP BY " + group + " ORDER BY " + first +
           " DESC LIMIT 8";
  };
  // Dashboard i groups by kDims[i % 3], so every seed ranks the same
  // shapes at the same Zipf ranks; the seed picks the filtered half (an
  // aligned half of another dimension) and the aggregates.
  std::vector<std::string> seen;
  while (static_cast<int>(script.dashboards.size()) < kDashboards) {
    const int g = static_cast<int>(script.dashboards.size()) % 3;
    int d = static_cast<int>(rng.NextBounded(2));
    if (d >= g) ++d;  // a dimension other than the grouped one
    const int lo = static_cast<int>(rng.NextBounded(3)) * kWidth[d];
    const std::string sql =
        panel(kDims[g], kAggs[rng.NextBounded(4)],
              std::string(kDims[d]) + " BETWEEN " + Num(lo) + " AND " +
                  Num(lo + 2 * kWidth[d] - 1));
    if (std::find(seen.begin(), seen.end(), sql) != seen.end()) continue;
    seen.push_back(sql);
    script.dashboards.push_back(sql);
  }
  for (int w = 0; w < windows; ++w) {
    for (int q = 0; q < kQueriesPerWindow; ++q) {
      // Background work at fixed positions: ingest mid-window (epochs
      // bump, both caches must revalidate), RunFor at the window's end.
      if (q == kQueriesPerWindow / 2) {
        script.ops.push_back({SimOp::Kind::kIngest, rng.Next()});
      }
      if (rng.NextBool(kDashboardShare)) {
        script.ops.push_back(
            {SimOp::Kind::kDashboard,
             rng.NextZipf(static_cast<uint64_t>(kDashboards), kZipfS)});
      } else {
        // Ad-hoc exploration: a quarter of the rows at a random offset.
        const uint64_t d = rng.NextBounded(17);
        const uint64_t r = rng.NextBounded(5);
        script.ops.push_back({SimOp::Kind::kAdhoc, script.adhoc.size()});
        script.adhoc.push_back(
            panel(kDims[script.adhoc.size() % 3], kAggs[rng.NextBounded(4)],
                  "day BETWEEN " + Num(d) + " AND " + Num(d + 15) +
                      " AND region BETWEEN " + Num(r) + " AND " + Num(r + 3)));
      }
      ++script.queries;
    }
    script.ops.push_back({SimOp::Kind::kRunFor, 0});
  }
  return script;
}

}  // namespace perfbench
