// Unit tests for scalewall::obs — the TraceSink (span trees, canonical
// export ordering, eviction/caps, Chrome trace JSON) and the
// MetricsRegistry (cell sharing, label identity, text export,
// thread-safety of counter handles under a work-stealing pool).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace scalewall::obs {
namespace {

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, RecordsSpanTreeWithAnnotations) {
  TraceSink sink;
  TraceContext root = sink.StartTrace("query t", 100);
  ASSERT_TRUE(root.active());
  root.Annotate("status", "kOk");

  TraceContext attempt = root.Child("attempt 1", 100);
  TraceContext sub = attempt.Child("subquery p0", 110);
  sub.End(150);
  attempt.End(160);
  root.End(170);

  std::vector<SpanRecord> spans = sink.Spans(root.trace);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "query t");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 170);
  ASSERT_EQ(spans[0].tags.size(), 1u);
  EXPECT_EQ(spans[0].tags[0].first, "status");
  EXPECT_EQ(spans[0].tags[0].second, "kOk");
  EXPECT_EQ(spans[1].name, "attempt 1");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].name, "subquery p0");
  EXPECT_EQ(spans[2].parent, spans[1].id);
}

TEST(TraceSinkTest, InactiveContextIsNoOp) {
  TraceContext none;
  EXPECT_FALSE(none.active());
  TraceContext child = none.Child("x", 0);
  EXPECT_FALSE(child.active());
  child.Annotate("k", "v");  // must not crash
  child.End(10);
}

TEST(TraceSinkTest, EvictsOldestWholeTrace) {
  TraceSinkOptions options;
  options.max_traces = 2;
  TraceSink sink(options);
  TraceContext a = sink.StartTrace("a", 0);
  TraceContext b = sink.StartTrace("b", 0);
  TraceContext c = sink.StartTrace("c", 0);
  EXPECT_EQ(sink.num_traces(), 2u);
  EXPECT_TRUE(sink.Spans(a.trace).empty());  // evicted
  EXPECT_EQ(sink.Spans(b.trace).size(), 1u);
  EXPECT_EQ(sink.Spans(c.trace).size(), 1u);
  EXPECT_EQ(sink.LastTraceId(), c.trace);
  std::vector<uint64_t> ids = sink.TraceIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], b.trace);
  EXPECT_EQ(ids[1], c.trace);
}

TEST(TraceSinkTest, SpanCapDropsSubtreesAndCounts) {
  TraceSinkOptions options;
  options.max_spans_per_trace = 3;
  TraceSink sink(options);
  TraceContext root = sink.StartTrace("r", 0);
  TraceContext a = root.Child("a", 1);
  TraceContext b = root.Child("b", 2);
  ASSERT_TRUE(b.active());
  // Cap reached: further children are refused, including children of the
  // refused span (the subtree is dropped silently).
  TraceContext c = root.Child("c", 3);
  EXPECT_FALSE(c.active());
  TraceContext grandchild = c.Child("gc", 4);
  EXPECT_FALSE(grandchild.active());
  EXPECT_EQ(sink.NumSpans(root.trace), 3u);
  EXPECT_EQ(sink.dropped_spans(), 1);  // only `c` hit the sink
  a.End(5);
}

TEST(TraceSinkTest, CanonicalOrderIndependentOfInsertionOrder) {
  // Two sinks record the same logical tree with sibling insertion
  // reversed (as a racy pool would); exports must match byte-for-byte.
  auto build = [](bool reversed) {
    auto sink = std::make_unique<TraceSink>();
    TraceContext root = sink->StartTrace("q", 0);
    if (reversed) {
      TraceContext late = root.Child("morsel 1", 20);
      late.Annotate("rows", "64");
      late.End(25);
      TraceContext early = root.Child("morsel 0", 10);
      early.Annotate("rows", "128");
      early.End(15);
    } else {
      TraceContext early = root.Child("morsel 0", 10);
      early.Annotate("rows", "128");
      early.End(15);
      TraceContext late = root.Child("morsel 1", 20);
      late.Annotate("rows", "64");
      late.End(25);
    }
    root.End(30);
    return sink;
  };
  auto forward = build(false);
  auto backward = build(true);
  EXPECT_EQ(forward->ExportTextTree(1), backward->ExportTextTree(1));
  EXPECT_EQ(forward->ExportChromeTrace(1), backward->ExportChromeTrace(1));

  // Canonical ids are DFS pre-order positions: 1 (root), 2, 3.
  std::vector<SpanRecord> spans = backward->Spans(1);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[1].name, "morsel 0");  // earlier start sorts first
  EXPECT_EQ(spans[2].id, 3u);
  EXPECT_EQ(spans[2].name, "morsel 1");
}

TEST(TraceSinkTest, TextTreeIndentsByDepth) {
  TraceSink sink;
  TraceContext root = sink.StartTrace("query t", 0);
  TraceContext attempt = root.Child("attempt 1", 0);
  TraceContext sub = attempt.Child("subquery p0", 5);
  sub.End(20);
  attempt.End(25);
  root.End(30);
  std::string tree = sink.ExportTextTree(root.trace);
  EXPECT_NE(tree.find("query t [start=0 dur=30]"), std::string::npos);
  EXPECT_NE(tree.find("\n  attempt 1 [start=0 dur=25]"), std::string::npos);
  EXPECT_NE(tree.find("\n    subquery p0 [start=5 dur=15]"), std::string::npos);
}

// Minimal JSON syntax check: balanced containers outside strings, valid
// escapes, no trailing garbage. Enough to catch a malformed export.
bool JsonIsWellFormed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        char e = text[i + 1];
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't' && e != 'u') {
          return false;
        }
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && !text.empty();
}

TEST(TraceSinkTest, ChromeTraceJsonIsWellFormed) {
  TraceSink sink;
  TraceContext root = sink.StartTrace("query \"quoted\"\n", 0);
  root.Annotate("path\\key", "line1\nline2\ttabbed");
  TraceContext child = root.Child("partition t/p0", 10);
  child.Annotate("rows", "640");
  child.End(42);
  root.End(50);

  std::string json = sink.ExportChromeTrace(root.trace);
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"partition t/p0\""), std::string::npos);
  // Escapes applied.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttabbed"), std::string::npos);
  // Unknown trace id -> empty document, still well-formed.
  std::string empty = sink.ExportChromeTrace(9999);
  EXPECT_TRUE(JsonIsWellFormed(empty)) << empty;
}

TEST(TraceSinkTest, ConcurrentSpanRecordingIsSafeAndComplete) {
  TraceSink sink;
  TraceContext root = sink.StartTrace("q", 0);
  constexpr int kSpans = 256;
  {
    exec::ThreadPool pool(4);
    exec::TaskGroup group(&pool);
    for (int i = 0; i < kSpans; ++i) {
      group.Run([&root, i] {
        TraceContext span =
            root.Child("morsel " + std::to_string(i), /*start=*/i);
        span.Annotate("i", std::to_string(i));
        span.End(i + 1);
      });
    }
    group.Wait();
  }
  root.End(kSpans);
  EXPECT_EQ(sink.NumSpans(root.trace), static_cast<size_t>(kSpans) + 1);
  // Canonical order sorts the racy recording by start time.
  std::vector<SpanRecord> spans = sink.Spans(root.trace);
  ASSERT_EQ(spans.size(), static_cast<size_t>(kSpans) + 1);
  for (int i = 0; i < kSpans; ++i) {
    EXPECT_EQ(spans[i + 1].name, "morsel " + std::to_string(i));
    EXPECT_EQ(spans[i + 1].parent, 1u);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsShareOneCell) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("requests_total");
  Counter b = registry.GetCounter("requests_total");
  ++a;
  b += 2;
  EXPECT_EQ(a.load(), 3);
  EXPECT_EQ(b.load(), 3);
  EXPECT_EQ(registry.num_series(), 1u);
}

TEST(MetricsRegistryTest, DistinctLabelSetsAreDistinctSeries) {
  MetricsRegistry registry;
  Counter r0 = registry.GetCounter("x_total", {{"region", "0"}});
  Counter r1 = registry.GetCounter("x_total", {{"region", "1"}});
  ++r0;
  r1 += 5;
  EXPECT_EQ(r0.load(), 1);
  EXPECT_EQ(r1.load(), 5);
  EXPECT_EQ(registry.num_series(), 2u);

  // Label order must not matter for identity.
  Counter ab = registry.GetCounter("y_total", {{"a", "1"}, {"b", "2"}});
  Counter ba = registry.GetCounter("y_total", {{"b", "2"}, {"a", "1"}});
  ++ab;
  EXPECT_EQ(ba.load(), 1);
  EXPECT_EQ(registry.num_series(), 3u);
}

TEST(MetricsRegistryTest, StandaloneHandlesWorkWithoutRegistry) {
  Counter c;
  ++c;
  c += 4;
  c.fetch_add(5);
  EXPECT_EQ(static_cast<int64_t>(c), 10);
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  HistogramMetric h;
  h.Add(1.0);
  h.Add(3.0);
  EXPECT_EQ(h.count(), 2);
}

TEST(MetricsRegistryTest, ExportPrometheusRendersAllKindsSorted) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("b_total", {{"region", "0"}});
  c += 8;
  Gauge g = registry.GetGauge("c_depth");
  g.Set(3.5);
  HistogramMetric h = registry.GetHistogram("a_latency_ms");
  h.Add(10.0);
  h.Add(20.0);

  std::string text = registry.ExportPrometheus();
  // Counters render as plain integers, no decimal point.
  EXPECT_NE(text.find("# TYPE b_total counter\nb_total{region=\"0\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE c_depth gauge\nc_depth 3.5\n"),
            std::string::npos);
  // Histograms render as cumulative buckets plus _sum and _count.
  EXPECT_NE(text.find("# TYPE a_latency_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("a_latency_ms_bucket{le=\"5\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("a_latency_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("a_latency_ms_sum 30\n"), std::string::npos);
  EXPECT_NE(text.find("a_latency_ms_count 2\n"), std::string::npos);
  // Sorted by name: histogram block first, then counter, then gauge.
  EXPECT_LT(text.find("a_latency_ms"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("c_depth"));
  // The le label composes with series labels, le last.
  HistogramMetric labeled =
      registry.GetHistogram("d_ms", {{"server", "3"}});
  labeled.Add(1.0);
  EXPECT_NE(registry.ExportPrometheus().find(
                "d_ms_bucket{server=\"3\",le=\"1\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ExportPrometheusIsStableAcrossCalls) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("z_total");
  c += 3;
  registry.GetGauge("a_gauge").Set(1.0);
  EXPECT_EQ(registry.ExportPrometheus(), registry.ExportPrometheus());
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("q_total", {{"pool", "a\\b\"c\nd"}}) += 1;
  EXPECT_NE(registry.ExportPrometheus().find(
                "q_total{pool=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << registry.ExportPrometheus();
}

TEST(MetricsRegistryTest, ValuesRenderExactly) {
  MetricsRegistry registry;
  registry.GetGauge("big_bytes").Set(123456789);
  registry.GetGauge("third").Set(1.0 / 3.0);
  registry.GetGauge("whole").Set(48);
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("big_bytes 123456789\n"), std::string::npos) << text;
  EXPECT_NE(text.find("whole 48\n"), std::string::npos) << text;
  // The shortest form that parses back to the same double.
  const size_t at = text.find("\nthird ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stod(text.substr(at + 7)), 1.0 / 3.0);
}

TEST(MetricsRegistryTest, CallbackSeriesReadAtScrapeAndRemovedWithHandle) {
  MetricsRegistry registry;
  int64_t depth = 2;
  {
    CallbackSeries gauge = registry.CallbackGauge(
        "pool_depth", {{"server", "1"}},
        [&depth] { return static_cast<double>(depth); });
    CallbackSeries counter = registry.CallbackCounter(
        "pool_steals_total", {}, [] { return 7.0; });
    EXPECT_NE(registry.ExportPrometheus().find("pool_depth{server=\"1\"} 2\n"),
              std::string::npos);
    depth = 5;
    const std::string text = registry.ExportPrometheus();
    EXPECT_NE(text.find("# TYPE pool_depth gauge\npool_depth{server=\"1\"} 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("# TYPE pool_steals_total counter\npool_steals_total 7\n"),
        std::string::npos)
        << text;
    // Moving the handle keeps the series.
    CallbackSeries moved = std::move(gauge);
    EXPECT_EQ(registry.num_series(), 2u);
  }
  EXPECT_EQ(registry.num_series(), 0u);
  EXPECT_EQ(registry.ExportPrometheus(), "");
}

TEST(MetricsRegistryTest, CallbackSeriesTakeoverOutlivesOlderHandle) {
  MetricsRegistry registry;
  CallbackSeries older =
      registry.CallbackGauge("entries", {}, [] { return 1.0; });
  CallbackSeries newer = registry.CallbackGauge("entries", {}, [] { return 2.0; });
  older.reset();  // no longer the owner: must not remove the series
  EXPECT_NE(registry.ExportPrometheus().find("entries 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromPoolWorkers) {
  MetricsRegistry registry;
  Counter counter = registry.GetCounter("scans_total");
  HistogramMetric histogram = registry.GetHistogram("latency_ms");
  constexpr int kTasks = 512;
  constexpr int kPerTask = 16;
  {
    exec::ThreadPool pool(4);
    exec::TaskGroup group(&pool);
    for (int t = 0; t < kTasks; ++t) {
      group.Run([&registry, &histogram] {
        // Handles are shared cells: re-fetching inside workers must hit
        // the same atomic.
        Counter local = registry.GetCounter("scans_total");
        for (int i = 0; i < kPerTask; ++i) ++local;
        histogram.Add(1.0);
      });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), int64_t{kTasks} * kPerTask);
  EXPECT_EQ(histogram.count(), kTasks);
}

}  // namespace
}  // namespace scalewall::obs
