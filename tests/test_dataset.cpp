// Streaming dataset factory: extractor equality, shard round-trips,
// thread-count/resume byte-identity, corruption detection, and the
// in-memory output (build_dataset) against the oracle and the shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dataset/factory.hpp"
#include "dataset/shards.hpp"
#include "dataset/streaming.hpp"
#include "faultline/faultline.hpp"
#include "metrics/features.hpp"
#include "ml/diagnosis.hpp"
#include "runner/grid.hpp"

namespace {

namespace fs = std::filesystem;
using hpas::dataset::DatasetMeta;
using hpas::dataset::DatasetWriter;
using hpas::dataset::DatasetWriterOptions;
using hpas::dataset::StreamingExtractorConfig;
using hpas::dataset::StreamingFeatureExtractor;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("hpas_test_dataset_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

/// All dataset artifacts except the journal (an execution log, not an
/// output: it legitimately differs across thread counts and resume).
std::vector<std::string> artifact_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != "dataset.journal") names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void expect_identical_datasets(const fs::path& a, const fs::path& b) {
  const auto names_a = artifact_names(a);
  ASSERT_EQ(names_a, artifact_names(b));
  for (const auto& name : names_a) {
    EXPECT_EQ(slurp(a / name), slurp(b / name)) << name;
  }
}

StreamingExtractorConfig tiny_config(double t0, double t1, bool gauge) {
  StreamingExtractorConfig config;
  config.metrics = {{"m", "test"}};
  config.gauge = {gauge ? char{1} : char{0}};
  config.window_t0 = t0;
  config.window_t1 = t1;
  return config;
}

// --- StreamingFeatureExtractor unit behavior -------------------------

TEST(StreamingExtractor, GaugeWindowMatchesBatchSeries) {
  StreamingFeatureExtractor ex(tiny_config(2.0, 6.0, /*gauge=*/true));
  const std::vector<double> values = {5.0, 3.0, 8.0, 1.0, 4.0, 9.0, 2.0};
  for (std::size_t i = 0; i < values.size(); ++i) {
    ex.on_sample({"m", "test"}, static_cast<double>(i), values[i]);
  }
  // Window [2, 6): samples at t = 2, 3, 4, 5.
  const std::vector<double> in_window = {8.0, 1.0, 4.0, 9.0};
  const auto expected = hpas::metrics::extract_series_features(in_window);
  const auto streamed = ex.finalize(nullptr);
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i], expected[i]) << "feature " << i;
  }
  EXPECT_EQ(ex.samples_in_window(), 4u);
  EXPECT_EQ(ex.samples_out_of_window(), 3u);
}

TEST(StreamingExtractor, CounterFirstDifferences) {
  StreamingFeatureExtractor ex(tiny_config(0.5, 10.0, /*gauge=*/false));
  for (const auto& [t, v] : {std::pair{1.0, 10.0}, std::pair{2.0, 15.0},
                             std::pair{3.0, 21.0}, std::pair{4.0, 21.0}}) {
    ex.on_sample({"m", "test"}, t, v);
  }
  const std::vector<double> diffs = {5.0, 6.0, 0.0};
  const auto expected = hpas::metrics::extract_series_features(diffs);
  EXPECT_EQ(ex.finalize(nullptr), expected);
}

TEST(StreamingExtractor, SingleCounterSampleStaysRaw) {
  StreamingFeatureExtractor ex(tiny_config(0.5, 10.0, /*gauge=*/false));
  ex.on_sample({"m", "test"}, 1.0, 42.0);
  const std::vector<double> raw = {42.0};
  EXPECT_EQ(ex.finalize(nullptr), hpas::metrics::extract_series_features(raw));
}

TEST(StreamingExtractor, ResetReproducesAndKeepsBufferBounded) {
  StreamingFeatureExtractor ex(tiny_config(0.5, 100.5, /*gauge=*/true));
  std::vector<double> first;
  for (int round = 0; round < 5; ++round) {
    hpas::Rng rng(7);  // same stream every round
    for (int t = 1; t <= 100; ++t) {
      ex.on_sample({"m", "test"}, t, rng.uniform(0.0, 1.0));
    }
    const auto features = ex.finalize(nullptr);
    if (round == 0) {
      first = features;
    } else {
      EXPECT_EQ(features, first) << "round " << round;
    }
    ex.reset();
  }
  // One metric, 100-sample window: the peak buffer must be the window,
  // not 5 rounds of history.
  EXPECT_LE(ex.peak_buffered_values(), 100u);
}

TEST(StreamingExtractor, IgnoresUnknownMetricsCheaply) {
  StreamingFeatureExtractor ex(tiny_config(0.5, 10.0, /*gauge=*/true));
  for (int t = 1; t <= 10; ++t) {
    ex.on_sample({"other", "test"}, t, 1.0);
  }
  EXPECT_EQ(ex.samples_other_metrics(), 10u);
  EXPECT_EQ(ex.peak_buffered_values(), 0u);
}

// --- Factory rows vs the batch oracle on the fig09 plan --------------

// The whole diagnosis sweep shape (every class x every proxy app), one
// variant each to keep the battery fast; the full-variant sweep is the
// same code path run more times (microbench_dataset spot-checks it). One
// row per configuration a caller trains on: fig09's defaults, the noise-
// free training of online_monitor / OnlineDiagnoser, and the ablation's
// added DRAM counter. Every build_dataset row must equal
// ml::run_diagnosis_scenario (full MetricStore + extract_window_features)
// bit for bit.
TEST(StreamingEquality, Fig09PlanBitEqual) {
  struct Config {
    const char* name;
    double noise;
    bool include_bandwidth;
  };
  const Config configs[] = {
      {"fig09", 0.5, false},
      {"noise-free", 0.0, false},
      {"dram-counter", 0.5, true},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    hpas::ml::DiagnosisDataOptions options;
    options.variants_per_app = 1;
    options.run_duration_s = 20.0;
    options.warmup_s = 3.0;
    options.measurement_noise = config.noise;
    options.include_bandwidth_metrics = config.include_bandwidth;

    const auto plans = hpas::ml::plan_diagnosis_runs(options);
    ASSERT_GT(plans.size(), 0u);
    const hpas::ml::Dataset streamed = hpas::dataset::build_dataset(
        hpas::dataset::plan_from_diagnosis(options), /*threads=*/2);
    ASSERT_EQ(streamed.size(), plans.size());
    for (std::size_t r = 0; r < plans.size(); ++r) {
      const auto& plan = plans[r];
      const auto batch = hpas::ml::run_diagnosis_scenario(plan, options);
      EXPECT_EQ(streamed.labels[r], plan.label);
      ASSERT_EQ(streamed.num_features(), batch.size());
      EXPECT_EQ(std::memcmp(streamed.row(r).data(), batch.data(),
                            batch.size() * sizeof(double)),
                0)
          << plan.app << "/" << plan.anomaly;
    }
  }
}

// --- build_dataset: the in-memory output of the same rows -------------

TEST(BuildDataset, OneAndFourThreadsBitIdentical) {
  // Small but non-trivial: 6 classes x 8 apps x 1 variant = 48 runs.
  hpas::ml::DiagnosisDataOptions options;
  options.variants_per_app = 1;
  options.run_duration_s = 20.0;
  options.warmup_s = 2.0;
  const auto plan = hpas::dataset::plan_from_diagnosis(options);

  const hpas::ml::Dataset serial = hpas::dataset::build_dataset(plan, 1);
  const hpas::ml::Dataset parallel = hpas::dataset::build_dataset(plan, 4);
  ASSERT_EQ(serial.size(), 48u);
  EXPECT_EQ(serial.labels, parallel.labels);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.values().data(), parallel.values().data(),
                        serial.values().size() * sizeof(double)),
            0)
      << "feature rows diverged";
  EXPECT_EQ(serial.class_names, parallel.class_names);
  EXPECT_EQ(serial.feature_names, parallel.feature_names);
  EXPECT_EQ(serial.class_names, options.classes);
  EXPECT_EQ(serial.feature_names, plan.feature_names);
}

// --- Shard layout helpers --------------------------------------------

TEST(ShardLayout, RowAssignmentAndCounts) {
  EXPECT_EQ(hpas::dataset::shard_of_row(0, 3), 0u);
  EXPECT_EQ(hpas::dataset::shard_of_row(5, 3), 2u);
  for (const std::uint64_t rows : {0ull, 1ull, 7ull, 24ull, 1001ull}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      std::uint64_t total = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        total += hpas::dataset::shard_row_count(rows, shards, s);
      }
      EXPECT_EQ(total, rows) << rows << " rows over " << shards;
    }
  }
  EXPECT_EQ(hpas::dataset::shard_row_count(7, 3, 0), 3u);
  EXPECT_EQ(hpas::dataset::shard_row_count(7, 3, 1), 2u);
  EXPECT_EQ(hpas::dataset::shard_row_count(7, 3, 2), 2u);
}

// --- DatasetWriter round-trip ----------------------------------------

DatasetMeta tiny_meta(std::uint64_t rows, std::uint32_t shards) {
  DatasetMeta meta;
  meta.plan_digest = 0xABCDEF0123456789ull;
  meta.rows = rows;
  meta.num_features = 3;
  meta.shards = shards;
  meta.class_names = {"none", "anom"};
  meta.feature_names = {"f0", "f1", "f2"};
  return meta;
}

std::vector<double> row_features(std::uint64_t row) {
  return {static_cast<double>(row), 0.5 * static_cast<double>(row) - 3.0,
          1.0 / (1.0 + static_cast<double>(row))};
}

TEST(DatasetWriter, RoundTripVerifies) {
  const fs::path dir = fresh_dir("roundtrip");
  DatasetWriter writer(tiny_meta(17, 3), {dir.string(), 4, false});
  // Arbitrary completion order; bytes must land in plan order anyway.
  const std::uint64_t order[] = {3, 0, 1, 2, 8, 5, 4, 6, 7,
                                 16, 12, 9, 10, 11, 13, 15, 14};
  for (const std::uint64_t row : order) {
    const auto f = row_features(row);
    writer.append(row, static_cast<int>(row % 2), f);
  }
  const std::string manifest = writer.finish(/*write_csv=*/true);
  EXPECT_TRUE(fs::exists(manifest));
  EXPECT_TRUE(fs::exists(dir / "dataset.csv"));

  const auto report = hpas::dataset::verify_dataset(dir.string());
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);

  // The CSV has one header plus one line per row, in plan order.
  std::ifstream csv(dir / "dataset.csv");
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("row,label,", 0), 0u);
  std::uint64_t expect_row = 0;
  while (std::getline(csv, line)) {
    EXPECT_EQ(line.rfind(std::to_string(expect_row) + ",", 0), 0u) << line;
    ++expect_row;
  }
  EXPECT_EQ(expect_row, 17u);
  fs::remove_all(dir);
}

TEST(DatasetWriter, DetectsCorruptionAndTruncation) {
  const fs::path dir = fresh_dir("corrupt");
  DatasetWriter writer(tiny_meta(10, 2), {dir.string(), 4, false});
  for (std::uint64_t row = 0; row < 10; ++row) {
    const auto f = row_features(row);
    writer.append(row, 0, f);
  }
  writer.finish(false);
  ASSERT_TRUE(hpas::dataset::verify_dataset(dir.string()).ok);

  // Flip one payload byte in shard 1.
  const fs::path shard = dir / hpas::dataset::shard_file_name(1);
  {
    std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(40);
    f.write(&byte, 1);
  }
  const auto corrupt = hpas::dataset::verify_dataset(dir.string());
  EXPECT_FALSE(corrupt.ok);
  ASSERT_FALSE(corrupt.errors.empty());

  // Restore, then truncate the other shard mid-frame.
  {
    std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(40);
    f.write(&byte, 1);
  }
  ASSERT_TRUE(hpas::dataset::verify_dataset(dir.string()).ok);
  const fs::path other = dir / hpas::dataset::shard_file_name(0);
  fs::resize_file(other, fs::file_size(other) - 7);
  EXPECT_FALSE(hpas::dataset::verify_dataset(dir.string()).ok);
  fs::remove_all(dir);
}

TEST(DatasetWriter, CsvWriteFailureLeavesNeitherCsvNorTmp) {
  namespace fl = hpas::faultline;
  const fs::path dir = fresh_dir("csv_enospc");
  // Four rows per shard at a checkpoint interval of four: every checkpoint
  // lands during append(), so finish()'s journal-domain writes are the
  // CSV's (and, had it got that far, the manifest's).
  DatasetWriter writer(tiny_meta(8, 2), {dir.string(), 4, false});
  for (std::uint64_t row = 0; row < 8; ++row) {
    const auto f = row_features(row);
    writer.append(row, 0, f);
  }
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kJournal,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = ENOSPC,
                            .every = 1});
  fl::arm(schedule);
  EXPECT_THROW(writer.finish(/*write_csv=*/true), hpas::SystemError);
  const std::uint64_t injected = fl::stats().injected;
  fl::disarm();
  EXPECT_EQ(injected, 1u);
  EXPECT_FALSE(fs::exists(dir / "dataset.csv"));
  EXPECT_FALSE(fs::exists(dir / "dataset.csv.tmp"));
  EXPECT_FALSE(fs::exists(dir / "manifest.json"));
  fs::remove_all(dir);
}

TEST(DatasetWriter, RejectsBadAppends) {
  const fs::path dir = fresh_dir("badappend");
  DatasetWriter writer(tiny_meta(4, 2), {dir.string(), 4, false});
  const std::vector<double> short_row = {1.0};
  EXPECT_THROW(writer.append(0, 0, short_row), hpas::InvariantError);
  const auto good = row_features(0);
  EXPECT_THROW(writer.append(99, 0, good), hpas::InvariantError);
  EXPECT_THROW(writer.append(0, 7, good), hpas::InvariantError);
  writer.abandon();
  fs::remove_all(dir);
}

/// Rows 0..rows-1 in a fixed pseudo-random order.
std::vector<std::uint64_t> scrambled_rows(std::uint64_t rows) {
  std::vector<std::uint64_t> order(rows);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937_64(7));
  return order;
}

void append_rows(DatasetWriter& writer,
                 const std::vector<std::uint64_t>& order) {
  for (const std::uint64_t row : order) {
    if (writer.row_durable(row)) continue;
    const auto f = row_features(row);
    writer.append(row, static_cast<int>(row % 2), f);
  }
}

TEST(DatasetWriter, OutOfOrderAppendsAreByteIdenticalAtAnyCheckpointInterval) {
  // 3000 rows over 2 shards: each shard's 1500 44-byte frames pass the
  // 64 KiB write buffer once, so size-triggered writes are covered too.
  constexpr std::uint64_t kRows = 3000;
  std::vector<std::uint64_t> in_order(kRows);
  std::iota(in_order.begin(), in_order.end(), std::uint64_t{0});
  const std::vector<std::uint64_t> scrambled = scrambled_rows(kRows);
  ASSERT_NE(scrambled, in_order);

  const fs::path golden = fresh_dir("ooo_golden");
  const fs::path every = fresh_dir("ooo_every_row");
  const fs::path rare = fresh_dir("ooo_rare");
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {golden.string(), 1024, false});
    append_rows(writer, in_order);
    writer.finish(/*write_csv=*/true);
  }
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {every.string(), 1, false});
    append_rows(writer, scrambled);
    writer.finish(/*write_csv=*/true);
  }
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {rare.string(), 1024, false});
    append_rows(writer, scrambled);
    writer.finish(/*write_csv=*/true);
  }
  expect_identical_datasets(golden, every);
  expect_identical_datasets(golden, rare);
  EXPECT_TRUE(hpas::dataset::verify_dataset(rare.string()).ok);
  fs::remove_all(golden);
  fs::remove_all(every);
  fs::remove_all(rare);
}

TEST(DatasetWriter, AbandonWritesBufferedFramesAndResumeCompletes) {
  constexpr std::uint64_t kRows = 600;
  std::vector<std::uint64_t> in_order(kRows);
  std::iota(in_order.begin(), in_order.end(), std::uint64_t{0});
  const fs::path golden = fresh_dir("abandon_golden");
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {golden.string(), 1024, false});
    append_rows(writer, in_order);
    writer.finish(/*write_csv=*/true);
  }

  // A checkpoint interval above the row count: nothing is written before
  // abandon(). Rows 0..299 are contiguous, 310..319 park behind the gap.
  const fs::path dir = fresh_dir("abandon_cut");
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {dir.string(), 1024, false});
    std::vector<std::uint64_t> first(in_order.begin(), in_order.begin() + 300);
    append_rows(writer, first);
    append_rows(writer, {310, 311, 312, 313, 314, 315, 316, 317, 318, 319});
    const std::uintmax_t header_only =
        fs::file_size(dir / hpas::dataset::shard_file_name(0));
    writer.abandon();
    EXPECT_GT(fs::file_size(dir / hpas::dataset::shard_file_name(0)),
              header_only);
  }
  EXPECT_FALSE(fs::exists(dir / "manifest.json"));
  {
    DatasetWriter writer(tiny_meta(kRows, 2), {dir.string(), 1024, true});
    EXPECT_EQ(writer.rows_durable(), 300u);
    EXPECT_TRUE(writer.row_durable(299));
    EXPECT_FALSE(writer.row_durable(310));
    append_rows(writer, in_order);
    writer.finish(/*write_csv=*/true);
  }
  expect_identical_datasets(golden, dir);
  EXPECT_TRUE(hpas::dataset::verify_dataset(dir.string()).ok);
  fs::remove_all(golden);
  fs::remove_all(dir);
}

// --- Factory: thread-count and resume byte-identity ------------------

hpas::dataset::DatasetPlan smoke_plan(std::uint64_t rows) {
  hpas::Json doc = hpas::Json::object();
  doc.set("name", "test_dataset");
  doc.set("system", "voltrino");
  doc.set("seed", std::uint64_t{7});
  hpas::Json apps = hpas::Json::array();
  apps.push_back("CoMD");
  apps.push_back("milc");
  doc.set("apps", std::move(apps));
  hpas::Json anomalies = hpas::Json::array();
  anomalies.push_back("none");
  anomalies.push_back("cpuoccupy");
  anomalies.push_back("membw");
  doc.set("anomalies", std::move(anomalies));
  hpas::Json intensities = hpas::Json::array();
  intensities.push_back(0.75);
  doc.set("intensities", std::move(intensities));
  doc.set("repeats", 1);
  doc.set("duration_s", 8.0);
  doc.set("sample_period_s", 1.0);
  doc.set("run_to_completion", false);
  return hpas::dataset::plan_from_grid(hpas::runner::expand_grid(doc), rows,
                                       /*warmup_s=*/2.0, /*noise=*/0.5,
                                       /*include_bandwidth=*/false);
}

hpas::dataset::DatasetFactoryResult run_factory(
    const hpas::dataset::DatasetPlan& plan, const fs::path& dir, int threads,
    bool resume = false, const hpas::CancelToken* graceful = nullptr) {
  hpas::dataset::DatasetFactoryOptions options;
  options.out_dir = dir.string();
  options.shards = 3;
  options.threads = threads;
  options.checkpoint_rows = 4;
  options.resume = resume;
  options.write_csv = true;
  options.graceful = graceful;
  return hpas::dataset::run_dataset_factory(plan, options);
}

TEST(DatasetFactory, ByteIdenticalAcrossThreadCounts) {
  const auto plan = smoke_plan(24);
  const fs::path d1 = fresh_dir("threads1");
  const fs::path d2 = fresh_dir("threads2");
  const fs::path d5 = fresh_dir("threads5");
  const auto r1 = run_factory(plan, d1, 1);
  const auto r2 = run_factory(plan, d2, 2);
  const auto r5 = run_factory(plan, d5, 5);
  EXPECT_TRUE(r1.complete && r2.complete && r5.complete);
  EXPECT_EQ(r1.rows_executed, 24u);
  expect_identical_datasets(d1, d2);
  expect_identical_datasets(d1, d5);
  EXPECT_TRUE(hpas::dataset::verify_dataset(d1.string()).ok);
  fs::remove_all(d1);
  fs::remove_all(d2);
  fs::remove_all(d5);
}

TEST(DatasetFactory, ResumeCompletesByteIdentically) {
  const auto plan = smoke_plan(24);
  const fs::path golden = fresh_dir("resume_golden");
  ASSERT_TRUE(run_factory(plan, golden, 2).complete);

  // Interrupt a fresh run partway via the graceful drain token, then
  // resume. The cut point races the workers on purpose: wherever it
  // lands (including "nothing executed yet"), the resumed bytes must
  // match the uninterrupted golden run.
  const fs::path dir = fresh_dir("resume_cut");
  hpas::CancelToken drain;
  std::thread cutter([&drain] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    drain.cancel();
  });
  const auto cut = run_factory(plan, dir, 2, false, &drain);
  cutter.join();

  const auto resumed = run_factory(plan, dir, 2, /*resume=*/true);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.rows_executed + resumed.rows_resumed, 24u);
  expect_identical_datasets(golden, dir);
  EXPECT_TRUE(hpas::dataset::verify_dataset(dir.string()).ok);
  fs::remove_all(golden);
  fs::remove_all(dir);
}

TEST(DatasetFactory, ResumeRejectsChangedPlan) {
  const auto plan = smoke_plan(12);
  const fs::path dir = fresh_dir("resume_reject");
  ASSERT_TRUE(run_factory(plan, dir, 2).complete);
  const auto other = smoke_plan(13);  // different digest
  EXPECT_THROW(run_factory(other, dir, 2, /*resume=*/true),
               hpas::ConfigError);
  fs::remove_all(dir);
}

TEST(DatasetFactory, ManifestCountsAndLabels) {
  const auto plan = smoke_plan(12);
  const fs::path dir = fresh_dir("manifest");
  const auto result = run_factory(plan, dir, 2);
  ASSERT_TRUE(result.complete);

  std::ifstream in(result.manifest_path);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const hpas::Json manifest = hpas::Json::parse(text);
  EXPECT_EQ(manifest.find("format")->as_string(), "hpas-dataset-v1");
  EXPECT_EQ(static_cast<std::uint64_t>(
                manifest.find("rows")->as_number()), 12u);
  EXPECT_EQ(static_cast<std::uint32_t>(
                manifest.find("shards")->as_number()), 3u);
  const auto& shard_files = manifest.find("shard_files")->as_array();
  ASSERT_EQ(shard_files.size(), 3u);
  std::uint64_t rows = 0;
  for (const auto& entry : shard_files) {
    rows += static_cast<std::uint64_t>(entry.find("rows")->as_number());
  }
  EXPECT_EQ(rows, 12u);
  const auto& label_counts = manifest.find("label_counts")->as_array();
  std::uint64_t labeled = 0;
  for (const auto& count : label_counts) {
    labeled += static_cast<std::uint64_t>(count.as_number());
  }
  EXPECT_EQ(labeled, 12u);
  ASSERT_NE(manifest.find("feature_crcs"), nullptr);
  EXPECT_EQ(manifest.find("feature_crcs")->as_array().size(),
            plan.feature_names.size());
  fs::remove_all(dir);
}

// --- One producer, two outputs --------------------------------------

/// dataset.csv's lines as build_dataset's rows format them: a header of
/// feature names, then "row,label,f0,f1,..." per row in plan order.
std::vector<std::string> csv_lines_of(const hpas::ml::Dataset& data) {
  std::string header = "row,label";
  for (const std::string& name : data.feature_names) header += ',' + name;
  std::vector<std::string> lines = {header};
  for (std::size_t r = 0; r < data.size(); ++r) {
    std::string line =
        std::to_string(r) + ',' + std::to_string(data.labels[r]);
    for (const double v : data.row(r))
      line += ',' + hpas::json_number_to_string(v);
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> file_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::istringstream in(slurp(path));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(BuildDataset, InMemoryRowsEqualDurableCsv) {
  hpas::ml::DiagnosisDataOptions options;
  options.classes = {"none", "memleak", "membw"};
  options.variants_per_app = 1;
  options.run_duration_s = 15.0;
  options.warmup_s = 2.0;
  // Both row kinds: diagnosis runs and grid scenarios.
  const std::pair<const char*, hpas::dataset::DatasetPlan> plans[] = {
      {"diagnosis", hpas::dataset::plan_from_diagnosis(options)},
      {"grid", smoke_plan(12)},
  };
  for (const auto& [name, plan] : plans) {
    SCOPED_TRACE(name);
    const fs::path dir = fresh_dir(std::string("csv_") + name);
    ASSERT_TRUE(run_factory(plan, dir, 2).complete);
    EXPECT_EQ(file_lines(dir / "dataset.csv"),
              csv_lines_of(hpas::dataset::build_dataset(plan, 2)));
    fs::remove_all(dir);
  }
}

}  // namespace
