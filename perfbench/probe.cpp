// In-process half of the perfbench benchmark (see README.md). run.py drives
// the `unveil` CLI for the file workloads and calls this probe for what the
// CLI cannot show: the simulator's ground truth, the folding error of the
// answer, the in-memory workload, and the traced per-layer run. Every mode
// prints one JSON object per line on stdout.
//
//   perfbench_probe info
//   perfbench_probe verify APP RANKS ITERATIONS SEED THREADS TRACE
//   perfbench_probe mem    APP RANKS ITERATIONS SEED THREADS SECONDS SETUPS
//   perfbench_probe traced APP RANKS ITERATIONS SEED THREADS SECONDS TRACE SPANS
//
// The library is used only through analysis::analyze with a default
// PipelineConfig, the simulator entry points, and the public function of
// each layer called with the parameters of that default config.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <malloc.h>

#include "unveil/analysis/experiments.hpp"
#include "unveil/analysis/pipeline.hpp"
#include "unveil/analysis/report.hpp"
#include "unveil/cluster/quality.hpp"
#include "unveil/folding/accuracy.hpp"
#include "unveil/folding/columnar.hpp"
#include "unveil/folding/folded.hpp"
#include "unveil/folding/rate.hpp"
#include "unveil/sim/apps/apps.hpp"
#include "unveil/support/error.hpp"
#include "unveil/support/sampler.hpp"
#include "unveil/support/telemetry.hpp"
#include "unveil/support/thread_pool.hpp"
#include "unveil/trace/binary_io.hpp"
#include "unveil/trace/shard_stream.hpp"

namespace {

using namespace unveil;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// The counters whose reconstructed rates the answer is judged on.
constexpr counters::CounterId kJudgedCounters[] = {counters::CounterId::TotIns,
                                                   counters::CounterId::L2Dcm};

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double msSince(std::int64_t startNs) { return static_cast<double>(nowNs() - startNs) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// Re-baselines VmHWM at the current RSS, so the next readMemoryStatus()
// peak is the peak since this call. Returns false where the kernel refuses.
bool resetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// Peak RSS growth (MB) of fn() over the RSS it started from. Free heap pages
// are returned to the kernel first, so memory an earlier call freed but the
// allocator kept does not hide this call's growth.
template <typename F>
double peakGrowthMb(F&& fn) {
  malloc_trim(0);
  resetPeakRss();
  const auto before = support::readMemoryStatus();
  fn();
  const auto after = support::readMemoryStatus();
  const auto base = std::min(before.rssBytes, before.hwmBytes);
  return after.hwmBytes > base ? mb(after.hwmBytes - base) : 0.0;
}

// --- minimal JSON writer ----------------------------------------------------

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  return "\"" + telemetry::escapeJson(s) + "\"";
}

// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jsonNumber(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jsonString(v));
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += jsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- workload definition and ground truth ----------------------------------

struct Workload {
  std::string app;
  sim::apps::AppParams params;
};

Workload workloadFrom(char** argv) {
  Workload w;
  w.app = argv[0];
  w.params.ranks = static_cast<trace::Rank>(std::stoul(argv[1]));
  w.params.iterations = static_cast<std::uint32_t>(std::stoul(argv[2]));
  w.params.seed = std::stoull(argv[3]);
  w.params.validate();
  return w;
}

void setThreads(const char* arg) { support::setGlobalThreads(std::stoul(arg)); }

// The simulator's truth, read from the application model itself (never from
// an analysis): the phase ids its programs execute and the number of compute
// bursts each rank runs per iteration. Throws when ranks or iterations do
// not share one burst sequence, because then no single period is true.
struct Truth {
  std::set<std::uint32_t> phases;
  std::size_t period = 0;
};

Truth truthOf(const sim::Application& app, std::uint32_t iterations) {
  Truth truth;
  std::vector<std::uint32_t> body;
  for (trace::Rank r = 0; r < app.numRanks(); ++r) {
    std::vector<std::vector<std::uint32_t>> perIteration(iterations);
    for (const auto& action : app.buildProgram(r)) {
      if (const auto* c = std::get_if<sim::ComputeAction>(&action)) {
        if (c->iteration >= iterations) throw Error("truth: iteration out of range");
        perIteration[c->iteration].push_back(c->phaseId);
        truth.phases.insert(c->phaseId);
      }
    }
    for (const auto& seq : perIteration) {
      if (body.empty()) body = seq;
      if (seq != body) throw Error("truth: iterations differ in their burst sequence");
    }
  }
  truth.period = body.size();
  return truth;
}

std::string truthJson(const Truth& t) {
  std::string phases = "[";
  for (const auto p : t.phases) phases += (phases.size() > 1 ? ", " : "") + std::to_string(p);
  return JsonObject()
      .raw("phases", phases + "]")
      .num("period", static_cast<double>(t.period))
      .dump();
}

// --- the answer under test --------------------------------------------------

// The parts of a result the oracle judges, in the same shape run.py parses
// out of the CLI report: per cluster [instances, modal truth phase or -1,
// folded].
std::string answerJson(const analysis::PipelineResult& r) {
  std::string clusters = "[";
  for (const auto& c : r.clusters) {
    if (clusters.size() > 1) clusters += ", ";
    const long long modal =
        c.modalTruthPhase == cluster::kNoPhase ? -1 : static_cast<long long>(c.modalTruthPhase);
    clusters.append("[").append(std::to_string(c.instances)).append(", ");
    clusters.append(std::to_string(modal)).append(c.folded ? ", 1]" : ", 0]");
  }
  return JsonObject()
      .num("period", static_cast<double>(r.period.period))
      .num("bursts", static_cast<double>(r.bursts.size()))
      .num("noise", static_cast<double>(r.clustering.noiseCount()))
      .raw("clusters", clusters + "]")
      .dump();
}

// Folding error (%) of an answer: for every true phase, the mean absolute
// difference between the reconstructed normalized rate of its main cluster
// (the largest folded cluster whose modal truth phase it is) and the phase
// model's exact rate, worst over phases and judged counters. A phase with no
// folded cluster, or a counter that was not reconstructed, counts as a flat
// zero curve, which is 100 % off. On a right answer the main clusters are
// exactly the folded clusters.
double foldErrorPct(const analysis::PipelineResult& r, const sim::Application& app,
                    const std::set<std::uint32_t>& truePhases) {
  double worst = 0.0;
  for (const auto phase : truePhases) {
    const analysis::ClusterReport* main = nullptr;
    for (const auto& c : r.clusters)
      if (c.folded && c.modalTruthPhase == phase && (!main || c.instances > main->instances))
        main = &c;
    for (const auto counter : kJudgedCounters) {
      const folding::RateCurve* curve = nullptr;
      if (main) {
        const auto it = main->rates.find(counter);
        if (it != main->rates.end()) curve = &it->second;
      }
      if (!curve) {
        worst = std::max(worst, 100.0);
        continue;
      }
      const auto& shape = app.phase(phase).model.profile(counter).shape;
      const auto truth = folding::truthNormalizedRate(shape, curve->t);
      worst = std::max(worst, folding::meanAbsDiffPercent(curve->normRate, truth));
    }
  }
  return worst;
}

// The cluster table of the `unveil analyze` report, rendered the way the CLI
// renders it, so run.py can check the CLI answered exactly what the
// in-process call answered.
std::string renderReport(const analysis::PipelineResult& r) {
  std::ostringstream os;
  analysis::clusterSummaryTable(r).print(os, "detected computation phases");
  return os.str();
}

// FNV-1a over the trace's binary serialization: the input fingerprint of the
// in-memory workload, which has no file to checksum.
std::string traceChecksum(const trace::Trace& t) {
  std::ostringstream os;
  trace::writeBinary(t, os);
  const std::string bytes = os.str();
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string("fnv1a64:") + buf + ":" + std::to_string(bytes.size());
}

std::string fingerprintJson(const trace::Trace& t, std::size_t bursts) {
  const auto s = t.stats();
  return JsonObject()
      .num("records", static_cast<double>(s.totalRecords))
      .num("events", static_cast<double>(s.events))
      .num("samples", static_cast<double>(s.samples))
      .num("bursts", static_cast<double>(bursts))
      .dump();
}

// --- modes ------------------------------------------------------------------

int modeInfo() {
  std::cout << JsonObject()
                   .str("compiler", __VERSION__)
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .raw("optimized", kOptimized ? "true" : "false")
                   .dump()
            << '\n';
  return 0;
}

// Reads the workload's trace file and answers it the way `unveil analyze`
// does, for the checks the CLI report alone cannot support.
int modeVerify(char** argv) {
  const Workload w = workloadFrom(argv);
  setThreads(argv[4]);
  const std::string path = argv[5];
  const auto app = sim::apps::makeApplication(w.app, w.params);
  const Truth truth = truthOf(*app, w.params.iterations);
  const auto t = trace::readAutoFile(path);
  const auto result = analysis::analyze(t);
  std::cout << JsonObject()
                   .raw("truth", truthJson(truth))
                   .raw("answer", answerJson(result))
                   .str("report", renderReport(result))
                   .num("fold_err_pct", foldErrorPct(result, *app, truth.phases))
                   .raw("fingerprint", fingerprintJson(t, result.bursts.size()))
                   .dump()
            << '\n';
  return 0;
}

// The in-memory workload: simulate SETUPS times (the set-up cost), then call
// analysis::analyze() on the last trace for SECONDS, one call at a time.
int modeMem(char** argv) {
  const Workload w = workloadFrom(argv);
  setThreads(argv[4]);
  const double seconds = std::stod(argv[5]);
  const int setups = std::max(1, std::stoi(argv[6]));
  const auto measurement = sim::MeasurementConfig::folding();

  std::optional<sim::RunResult> run;
  for (int i = 0; i < setups; ++i) {
    run.reset();
    const auto start = nowNs();
    run.emplace(analysis::runMeasured(w.app, w.params, measurement));
    const double s = msSince(start) / 1e3;
    std::cout << JsonObject()
                     .str("kind", "setup")
                     .num("s", s)
                     .str("checksum", traceChecksum(run->trace))
                     .dump()
              << '\n';
  }
  const Truth truth = truthOf(*run->app, w.params.iterations);
  std::cout << JsonObject().str("kind", "truth").raw("truth", truthJson(truth)).dump() << '\n';

  const auto loopStart = nowNs();
  std::size_t bursts = 0;
  do {
    analysis::PipelineResult result;
    std::int64_t start = 0;
    double wallMs = 0.0;
    const double growth = peakGrowthMb([&] {
      start = nowNs();
      result = analysis::analyze(run->trace);
      wallMs = msSince(start);
    });
    std::cout << JsonObject()
                     .str("kind", "op")
                     .num("s", wallMs / 1e3)
                     .num("peak_rss_mb", growth)
                     .num("fold_err_pct", foldErrorPct(result, *run->app, truth.phases))
                     .raw("answer", answerJson(result))
                     .dump()
              << '\n'
              << std::flush;
    bursts = result.bursts.size();
  } while (msSince(loopStart) < seconds * 1e3);

  std::cout << JsonObject()
                   .str("kind", "summary")
                   .raw("fingerprint", fingerprintJson(run->trace, bursts))
                   .dump()
            << '\n';
  return 0;
}

// --- traced run ---------------------------------------------------------------

// Spans recorded around calls into the library, kept in memory and written
// as Chrome-trace JSON at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t cpuNs = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(Span{std::move(name), tracer_.current_, 0, 0, 0});
      tracer_.current_ = index_;
      cpuStart_ = support::processCpuNs();
      tracer_.spans_[static_cast<std::size_t>(index_)].startNs = nowNs();
    }
    ~Scope() {
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.endNs = nowNs();
      s.cpuNs = support::processCpuNs() - cpuStart_;
      tracer_.current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = 0;
    std::int64_t cpuStart_ = 0;
  };

  [[nodiscard]] const Span& get(const std::string& name) const {
    for (const auto& s : spans_)
      if (s.name == name) return s;
    throw Error("tracer: no span " + name);
  }
  [[nodiscard]] double wallMs(const std::string& name) const {
    const auto& s = get(name);
    return static_cast<double>(s.endNs - s.startNs) / 1e6;
  }
  [[nodiscard]] double cpuMs(const std::string& name) const {
    return static_cast<double>(get(name).cpuNs) / 1e6;
  }

  void writeChromeTrace(std::ostream& os) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n")
         << JsonObject()
                .str("name", s.name)
                .str("cat", "perfbench")
                .str("ph", "X")
                .num("ts", static_cast<double>(s.startNs - origin) / 1e3)
                .num("dur", static_cast<double>(s.endNs - s.startNs) / 1e3)
                .num("pid", 1)
                .num("tid", 1)
                .raw("args", JsonObject()
                                 .num("cpu_ms", static_cast<double>(s.cpuNs) / 1e6)
                                 .str("parent", s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name)
                                 .dump())
                .dump();
    }
    os << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// The exact-clustering path of analyze(), one public layer function at a
// time, each inside its own span. Returns the per-layer work counts.
std::map<std::string, double> tracedLayers(Tracer& tr, const trace::Trace& t) {
  const analysis::PipelineConfig config;
  std::map<std::string, double> m;
  support::ThreadPool& pool = support::globalPool();

  std::vector<cluster::Burst> bursts;
  {
    Tracer::Scope s(tr, "cluster.fromPhaseEvents");
    bursts = config.extraction.fromPhaseEvents(t);
  }
  cluster::FeatureMatrix normalized(0, 1);
  {
    Tracer::Scope s(tr, "cluster.buildFeatures+ZScoreNormalizer");
    const auto raw = cluster::buildFeatures(bursts, config.features);
    normalized = cluster::ZScoreNormalizer::fit(raw).apply(raw);
  }
  cluster::DbscanParams params = config.dbscan;
  {
    Tracer::Scope s(tr, "cluster.estimateEps");
    params.eps = cluster::estimateEps(normalized, params.minPts, config.epsQuantile);
  }
  cluster::Clustering clustering;
  {
    Tracer::Scope s(tr, "cluster.dbscan");
    clustering = cluster::dbscan(normalized, params);
  }
  cluster::PeriodResult period;
  std::size_t merges = 0;
  {
    Tracer::Scope s(tr, "cluster.structure");
    auto sequences = cluster::clusterSequences(bursts, clustering);
    period = cluster::detectGlobalPeriod(sequences);
    if (config.refineFragments && period.period > 0) {
      auto refined =
          cluster::refineByStructure(bursts, clustering, period.period, config.refine);
      merges = refined.mergesApplied;
      if (merges > 0) {
        clustering = std::move(refined.clustering);
        sequences = cluster::clusterSequences(bursts, clustering);
        period = cluster::detectGlobalPeriod(sequences);
      }
    }
  }
  std::vector<std::uint32_t> truthLabels;
  truthLabels.reserve(bursts.size());
  for (const auto& b : bursts) truthLabels.push_back(b.truthPhase);
  m["cluster.bursts"] = static_cast<double>(bursts.size());
  m["cluster.eps"] = params.eps;
  m["cluster.clusters"] = static_cast<double>(clustering.numClusters);
  m["cluster.noise"] = static_cast<double>(clustering.noiseCount());
  m["cluster.refine_merges"] = static_cast<double>(merges);
  m["cluster.period"] = static_cast<double>(period.period);
  m["cluster.ari"] = cluster::adjustedRandIndex(clustering.labels, truthLabels);

  const auto buckets = clustering.buckets();
  std::vector<std::size_t> eligible;
  for (std::size_t c = 0; c < buckets.size(); ++c)
    if (buckets[c].size() >= config.minClusterInstances) eligible.push_back(c);

  folding::SampleColumns columns;
  {
    Tracer::Scope s(tr, "folding.SampleColumns::build");
    columns.build(t);
  }
  std::vector<std::vector<folding::MultiFoldEntry>> folds(eligible.size());
  {
    Tracer::Scope s(tr, "folding.foldClusterMulti");
    pool.parallelFor(eligible.size(), [&](std::size_t j) {
      folds[j] = folding::foldClusterMulti(columns, bursts, buckets[eligible[j]],
                                           config.rateCounters, config.reconstruct.fold);
    });
  }
  std::vector<folding::FoldedCounter*> clouds;
  double points = 0.0;
  for (auto& entries : folds)
    for (auto& e : entries)
      if (e.folded) {
        clouds.push_back(&*e.folded);
        points += static_cast<double>(e.folded->points.size());
      }
  std::vector<char> fitted(clouds.size(), 0);
  {
    Tracer::Scope s(tr, "folding.reconstructFoldedRate");
    pool.parallelFor(clouds.size(), [&](std::size_t j) {
      try {
        const auto curve = folding::reconstructFoldedRate(std::move(*clouds[j]), config.reconstruct);
        fitted[j] = curve.normRate.empty() ? 0 : 1;
      } catch (const AnalysisError&) {
        fitted[j] = 0;
      }
    });
  }
  m["folding.points"] = points;
  m["folding.curves"] = static_cast<double>(std::count(fitted.begin(), fitted.end(), 1));
  return m;
}

// Untraced timings of the in-process equivalent of one `unveil analyze`:
// read, analyze(), render. Used as the base of the tracing overhead and of
// the CLI's own overhead.
struct PathTimes {
  std::vector<double> analyzeMs, pathMs;
};

// The render step of `unveil analyze`: cluster table and SPMD score.
void render(const analysis::PipelineResult& r, trace::Rank ranks) {
  const auto report = renderReport(r);
  const double spmd = cluster::spmdScore(r.bursts, r.clustering, ranks);
  if (report.empty() || !std::isfinite(spmd)) throw Error("render: empty report");
}

void untracedPath(const std::string& path, PathTimes& out) {
  const auto start = nowNs();
  const auto t = trace::readAutoFile(path);
  const auto afterRead = nowNs();
  const auto result = analysis::analyze(t);
  out.analyzeMs.push_back(msSince(afterRead));
  render(result, t.numRanks());
  out.pathMs.push_back(msSince(start));
}

int modeTraced(char** argv) {
  const Workload w = workloadFrom(argv);
  setThreads(argv[4]);
  const double seconds = std::stod(argv[5]);
  const std::string path = argv[6];
  const std::string spansPath = argv[7];
  const Truth truth =
      truthOf(*sim::apps::makeApplication(w.app, w.params), w.params.iterations);

  PathTimes untraced;
  const auto loopStart = nowNs();
  do untracedPath(path, untraced);
  while (untraced.pathMs.size() < 2 || msSince(loopStart) < seconds * 1e3);

  Tracer tr;
  std::map<std::string, double> m;
  {
    Tracer::Scope root(tr, "perfbench.traced");
    {
      Tracer::Scope s(tr, "trace.ShardStreamReader");
      trace::ShardStreamReader reader(path);
      std::size_t shards = 0;
      while (reader.next()) ++shards;
      if (shards != reader.header().ranks) throw Error("stream pass: shard count mismatch");
    }
    std::optional<trace::Trace> t;
    m["trace.rss_mb"] = peakGrowthMb([&] {
      Tracer::Scope s(tr, "trace.readAutoFile");
      t.emplace(trace::readAutoFile(path));
    });
    m["trace.records"] = static_cast<double>(t->stats().totalRecords);

    const auto layers = tracedLayers(tr, *t);
    m.insert(layers.begin(), layers.end());

    analysis::PipelineResult result;
    {
      Tracer::Scope s(tr, "analysis.analyze");
      result = analysis::analyze(*t);
    }
    const std::size_t clusters = result.clusters.size();
    m["analysis.spurious_clusters"] =
        static_cast<double>(clusters > truth.phases.size() ? clusters - truth.phases.size() : 0);
    m["analysis.noise_pct"] = 100.0 * static_cast<double>(result.clustering.noiseCount()) /
                              static_cast<double>(result.bursts.size());
    {
      Tracer::Scope s(tr, "analysis.render");
      render(result, t->numRanks());
    }
  }

  const double fileMb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  const double readMs = tr.wallMs("trace.readAutoFile");
  m["trace.read_ms"] = readMs;
  m["trace.read_cpu_ms"] = tr.cpuMs("trace.readAutoFile");
  m["trace.read_mb_s"] = readMs > 0.0 ? fileMb / (readMs / 1e3) : 0.0;
  m["trace.stream_ms"] = tr.wallMs("trace.ShardStreamReader");
  m["cluster.extract_ms"] = tr.wallMs("cluster.fromPhaseEvents");
  m["cluster.features_ms"] = tr.wallMs("cluster.buildFeatures+ZScoreNormalizer");
  m["cluster.eps_ms"] = tr.wallMs("cluster.estimateEps");
  m["cluster.dbscan_ms"] = tr.wallMs("cluster.dbscan");
  m["cluster.dbscan_cpu_ms"] = tr.cpuMs("cluster.dbscan");
  m["cluster.structure_ms"] = tr.wallMs("cluster.structure");
  m["folding.columns_ms"] = tr.wallMs("folding.SampleColumns::build");
  m["folding.fold_ms"] = tr.wallMs("folding.foldClusterMulti");
  m["folding.fold_cpu_ms"] = tr.cpuMs("folding.foldClusterMulti");
  m["folding.fit_ms"] = tr.wallMs("folding.reconstructFoldedRate");
  m["folding.fit_cpu_ms"] = tr.cpuMs("folding.reconstructFoldedRate");
  const double analyzeMs = tr.wallMs("analysis.analyze");
  double layersMs = 0.0;
  for (const char* name : {"cluster.extract_ms", "cluster.features_ms", "cluster.eps_ms",
                           "cluster.dbscan_ms", "cluster.structure_ms", "folding.columns_ms",
                           "folding.fold_ms", "folding.fit_ms"})
    layersMs += m[name];
  m["analysis.analyze_ms"] = analyzeMs;
  m["analysis.unattributed_ms"] = analyzeMs - layersMs;
  m["analysis.render_ms"] = tr.wallMs("analysis.render");
  const double threads = static_cast<double>(support::globalThreadCount());
  m["support.pool_threads"] = threads;
  m["support.cpu_util_pct"] =
      analyzeMs > 0.0 ? 100.0 * tr.cpuMs("analysis.analyze") / (analyzeMs * threads) : 0.0;

  std::ofstream spans(spansPath);
  tr.writeChromeTrace(spans);
  if (!spans) throw Error("cannot write spans to " + spansPath);

  JsonObject metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  std::cout << JsonObject()
                   .raw("truth", truthJson(truth))
                   .raw("metrics", metrics.dump())
                   .num("traced_path_ms", readMs + analyzeMs + tr.wallMs("analysis.render"))
                   .num("untraced_runs", static_cast<double>(untraced.pathMs.size()))
                   .num("untraced_path_ms", median(untraced.pathMs))
                   .num("untraced_analyze_ms", median(untraced.analyzeMs))
                   .dump()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::map<std::string, int> arity = {{"info", 0}, {"verify", 6}, {"mem", 7}, {"traced", 8}};
  const auto it = arity.find(mode);
  if (it == arity.end() || argc != it->second + 2) {
    std::cerr << "usage: see the header of perfbench/probe.cpp\n";
    return 2;
  }
  if (!kOptimized && mode != "info") {
    std::cerr << "perfbench_probe: refusing to measure an unoptimized build\n";
    return 3;
  }
  try {
    char** rest = argv + 2;
    if (mode == "info") return modeInfo();
    if (mode == "verify") return modeVerify(rest);
    if (mode == "mem") return modeMem(rest);
    return modeTraced(rest);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe " << mode << ": " << e.what() << '\n';
    return 1;
  }
}
