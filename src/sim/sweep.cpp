#include "sim/sweep.hpp"

#include "sim/json_escape.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

namespace scidmz::sim {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  appendJsonEscaped(out, s);
  return out;
}

std::string formatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

// One batch ("job") at a time: dispatch() publishes the body and cell count,
// workers claim indices under the lock (cells are seconds-long, so lock
// traffic is negligible), and the last completion wakes the dispatcher.
struct SweepRunner::Pool {
  std::mutex mu;
  std::condition_variable workCv;
  std::condition_variable doneCv;
  const std::function<void(SweepCell&)>* body = nullptr;
  std::vector<SweepCellStats>* cellStats = nullptr;
  std::vector<std::exception_ptr>* errors = nullptr;
  std::size_t next = 0;
  std::size_t total = 0;
  std::size_t completed = 0;
  bool shutdown = false;
  std::vector<std::thread> threads;

  void workerLoop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      workCv.wait(lock, [this] { return shutdown || (body != nullptr && next < total); });
      if (shutdown) return;
      const std::size_t index = next++;
      const auto* job = body;
      auto* stats = cellStats;
      auto* errs = errors;
      lock.unlock();

      SweepCell cell;
      cell.index = index;
      const auto start = std::chrono::steady_clock::now();
      std::exception_ptr error;
      try {
        (*job)(cell);
      } catch (...) {
        error = std::current_exception();
      }
      const double wall = secondsSince(start);

      lock.lock();
      (*stats)[index] =
          SweepCellStats{wall,           cell.eventsExecuted, cell.packetsForwarded,
                         cell.flowsCreated, cell.spansEmitted, cell.snapshotBytes,
                         std::move(cell.telemetryJson), cell.domains,
                         std::move(cell.domainEvents), std::move(cell.domainBusySeconds),
                         std::move(cell.domainWaitSeconds)};
      if (error) (*errs)[index] = error;
      if (++completed == total) {
        body = nullptr;
        doneCv.notify_all();
      }
    }
  }
};

SweepRunner::SweepRunner(int workers) {
  workers_ = workers > 0 ? workers : defaultWorkers();
  pool_ = std::make_unique<Pool>();
  pool_->threads.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    pool_->threads.emplace_back([pool = pool_.get()] { pool->workerLoop(); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->shutdown = true;
  }
  pool_->workCv.notify_all();
  for (auto& t : pool_->threads) t.join();
}

int SweepRunner::defaultWorkers() {
  if (const char* env = std::getenv("SCIDMZ_SWEEP_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void SweepRunner::dispatch(std::size_t cellCount, const std::function<void(SweepCell&)>& body,
                           std::string name) {
  SweepRunStats stats;
  stats.name = std::move(name);
  stats.workers = workers_;
  stats.cells.resize(cellCount);
  if (cellCount == 0) {
    history_.push_back(std::move(stats));
    return;
  }

  std::vector<std::exception_ptr> errors(cellCount);
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(pool_->mu);
    pool_->body = &body;
    pool_->cellStats = &stats.cells;
    pool_->errors = &errors;
    pool_->next = 0;
    pool_->total = cellCount;
    pool_->completed = 0;
    pool_->workCv.notify_all();
    pool_->doneCv.wait(lock, [this] { return pool_->completed == pool_->total; });
  }
  stats.wallSeconds = secondsSince(start);
  history_.push_back(std::move(stats));

  // Propagate the lowest-index failure so 1-worker and N-worker runs report
  // the same error for the same broken cell.
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

bool SweepRunner::writeJson(const std::string& benchName, const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"benchmark\": \"" << jsonEscape(benchName) << "\",\n  \"runs\": [\n";
  for (std::size_t r = 0; r < history_.size(); ++r) {
    const SweepRunStats& run = history_[r];
    const double speedup =
        run.wallSeconds > 0 ? run.cellSecondsSum() / run.wallSeconds : 0.0;
    const double eventsPerSec =
        run.wallSeconds > 0 ? static_cast<double>(run.totalEvents()) / run.wallSeconds : 0.0;
    const double packetsPerSec =
        run.wallSeconds > 0 ? static_cast<double>(run.totalPackets()) / run.wallSeconds : 0.0;
    const double flowsPerSec =
        run.wallSeconds > 0 ? static_cast<double>(run.totalFlows()) / run.wallSeconds : 0.0;
    out << "    {\n"
        << "      \"name\": \"" << jsonEscape(run.name) << "\",\n"
        << "      \"workers\": " << run.workers << ",\n"
        << "      \"cells\": " << run.cells.size() << ",\n"
        << "      \"wall_seconds\": " << formatDouble(run.wallSeconds) << ",\n"
        << "      \"cell_seconds_sum\": " << formatDouble(run.cellSecondsSum()) << ",\n"
        << "      \"speedup\": " << formatDouble(speedup) << ",\n"
        << "      \"events_executed\": " << run.totalEvents() << ",\n"
        << "      \"events_per_second\": " << formatDouble(eventsPerSec) << ",\n"
        << "      \"packets_forwarded\": " << run.totalPackets() << ",\n"
        << "      \"packets_per_second\": " << formatDouble(packetsPerSec) << ",\n"
        << "      \"flows_created\": " << run.totalFlows() << ",\n"
        << "      \"flows_per_second\": " << formatDouble(flowsPerSec) << ",\n"
        << "      \"spans_emitted\": " << run.totalSpans() << ",\n"
        << "      \"snapshot_bytes\": " << run.totalSnapshotBytes() << ",\n"
        << "      \"cell_stats\": [";
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "{\"wall_seconds\": " << formatDouble(run.cells[i].wallSeconds)
          << ", \"events\": " << run.cells[i].eventsExecuted
          << ", \"packets\": " << run.cells[i].packetsForwarded
          << ", \"flows\": " << run.cells[i].flowsCreated
          << ", \"spans\": " << run.cells[i].spansEmitted
          << ", \"snapshot_bytes\": " << run.cells[i].snapshotBytes
          << ", \"domains\": " << run.cells[i].domains;
      if (!run.cells[i].domainEvents.empty()) {
        out << ", \"domain_events\": [";
        for (std::size_t d = 0; d < run.cells[i].domainEvents.size(); ++d) {
          out << (d == 0 ? "" : ", ") << run.cells[i].domainEvents[d];
        }
        out << "]";
      }
      const auto seconds = [&](const char* key, const std::vector<double>& perDomain) {
        if (perDomain.empty()) return;
        out << ", \"" << key << "\": [";
        for (std::size_t d = 0; d < perDomain.size(); ++d) {
          out << (d == 0 ? "" : ", ") << formatDouble(perDomain[d]);
        }
        out << "]";
      };
      seconds("domain_busy_s", run.cells[i].domainBusySeconds);
      seconds("domain_wait_s", run.cells[i].domainWaitSeconds);
      // telemetryJson is already a JSON object (scidmz.telemetry.v1);
      // embed it raw so the cell's counters/series land in BENCH_sim.json.
      if (!run.cells[i].telemetryJson.empty()) {
        out << ", \"telemetry\": " << run.cells[i].telemetryJson;
      }
      out << "}";
    }
    out << "]\n    }" << (r + 1 < history_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace scidmz::sim
