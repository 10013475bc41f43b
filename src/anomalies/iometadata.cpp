#include "anomalies/iometadata.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace hpas::anomalies {
namespace fs = std::filesystem;

struct IoMetadata::Impl {
  std::vector<std::thread> workers;
  std::vector<fs::path> task_dirs;
  std::atomic<std::uint64_t> ops{0};
};

IoMetadata::IoMetadata(IoMetadataOptions opts)
    : Anomaly(opts.common), opts_(opts), impl_(std::make_unique<Impl>()) {
  require(opts.ntasks >= 1, "iometadata: ntasks must be >= 1");
  require(opts.files_per_iteration >= 1,
          "iometadata: files per iteration must be >= 1");
  require(opts.delete_every >= 1, "iometadata: delete_every must be >= 1");
}

IoMetadata::~IoMetadata() { teardown(); }

void IoMetadata::setup() {
  supervisor().set_worker_count(opts_.ntasks);
  for (unsigned task = 0; task < opts_.ntasks; ++task) {
    const fs::path dir = fs::path(opts_.directory) /
                         ("hpas_iometadata_" + std::to_string(::getpid()) +
                          "_t" + std::to_string(task));
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
      throw SystemError("iometadata: cannot create " + dir.string() + ": " +
                        ec.message());
    impl_->task_dirs.push_back(dir);
  }

  for (unsigned task = 0; task < opts_.ntasks; ++task) {
    const fs::path dir = impl_->task_dirs[task];
    impl_->workers.emplace_back([this, dir, task] {
      pin_current_thread(static_cast<int>(task));
      Supervisor& sup = supervisor();
      const auto sleep = [this](double s) { pace(s); };
      std::vector<fs::path> live_files;
      // ENOSPC/EMFILE while creating a file: first free what this worker
      // owns (its live batch), then let the retry loop try again -- the
      // momentary-exhaustion case where our own backlog is the problem.
      const auto free_own_files = [&](int) {
        for (const auto& file : live_files) {
          std::error_code ec;
          fs::remove(file, ec);
        }
        live_files.clear();
      };
      unsigned iteration = 0;
      bool worker_ok = true;
      while (worker_ok && !sup.cancelled()) {
        // Create/open a batch, write one character to each, close.
        for (unsigned i = 0; i < opts_.files_per_iteration; ++i) {
          const fs::path file =
              dir / std::string("f")
                        .append(std::to_string(iteration))
                        .append(1, '_')
                        .append(std::to_string(i));
          std::FILE* fp = nullptr;
          const IoResult opened = supervised_io(
              sup, task, FailureOp::kOpen,
              [&]() -> std::int64_t {
                fp = std::fopen(file.c_str(), "w");
                return fp != nullptr ? 0 : -1;
              },
              sleep, free_own_files);
          if (!opened.ok()) {
            worker_ok = false;
            break;
          }
          errno = 0;
          bool io_ok = std::fputc('x', fp) != EOF;
          io_ok = (std::fclose(fp) == 0) && io_ok;
          live_files.push_back(file);
          if (!io_ok) {
            const int err = errno != 0 ? errno : EIO;
            // A full filesystem bites here too (tmpfs charges a page per
            // file even for one byte): clean up our own batch -- which
            // includes the broken file just pushed -- and carry on.
            if (sup.effective_retry().max_attempts > 1 &&
                classify_errno(FailureOp::kWrite, err) ==
                    ErrorClass::kTransient) {
              free_own_files(err);
              sup.note_recovered(1);
              continue;
            }
            sup.report_failure(task, FailureOp::kWrite, err);
            worker_ok = false;
            break;
          }
          impl_->ops.fetch_add(3, std::memory_order_relaxed);  // create+write+close
          if (sup.cancelled()) break;
        }
        ++iteration;
        // Paper: "deletes them after 10 iterations".
        if (iteration % opts_.delete_every == 0) {
          for (const auto& file : live_files) {
            std::error_code ec;
            fs::remove(file, ec);
            impl_->ops.fetch_add(1, std::memory_order_relaxed);  // unlink
          }
          live_files.clear();
        }
        // Degrade mode: survivors shrink their pauses to cover the duty of
        // dead workers.
        if (worker_ok && opts_.sleep_between_iterations_s > 0.0)
          pace(opts_.sleep_between_iterations_s / sup.duty_factor());
      }
      // Leave the FS clean on exit -- on error exits too, so a dead worker
      // never strands its batch on the target filesystem.
      for (const auto& file : live_files) {
        std::error_code ec;
        fs::remove(file, ec);
      }
    });
  }
}

bool IoMetadata::iterate(RunStats& stats) {
  pace(0.05);
  stats.work_amount =
      static_cast<double>(impl_->ops.load(std::memory_order_relaxed));
  return !supervisor().should_stop();
}

void IoMetadata::teardown() {
  request_stop();
  for (auto& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
  impl_->workers.clear();
  ops_ = impl_->ops.load();
  for (const auto& dir : impl_->task_dirs) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  impl_->task_dirs.clear();
}

}  // namespace hpas::anomalies
