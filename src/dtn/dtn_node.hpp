// The Data Transfer Node: a purpose-built host dedicated to wide area
// transfers (Section 3.2 of the paper). A DTN couples a tuned network host
// to a storage subsystem and runs only transfer tooling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dtn/storage.hpp"
#include "net/flow.hpp"
#include "net/host.hpp"
#include "tcp/connection.hpp"
#include "telemetry/span.hpp"

namespace scidmz::dtn {

struct DtnProfile {
  tcp::TcpConfig tcp = tcp::TcpConfig::tunedDtn();
  /// GridFTP-style parallel streams per transfer.
  int parallelStreams = 4;
  /// True for real DTNs: only data-transfer applications installed. The
  /// design-rule validator flags general-purpose hosts posing as DTNs.
  bool dedicatedApplicationSet = true;
  /// Flow model fidelity for transfers originating at this DTN. kPacket
  /// keeps full per-segment TCP; kFluid lets large transfer fleets run on
  /// the analytic engine.
  net::FlowFidelity fidelity = net::FlowFidelity::kPacket;

  /// An untuned general-purpose server pressed into transfer duty — the
  /// baseline the paper's use cases start from.
  static DtnProfile untunedGeneralPurpose() {
    DtnProfile p;
    p.tcp = tcp::TcpConfig::untunedDefault();
    p.parallelStreams = 1;
    p.dedicatedApplicationSet = false;
    return p;
  }
};

class DataTransferNode {
 public:
  DataTransferNode(net::Host& host, StorageSubsystem& storage, DtnProfile profile = DtnProfile())
      : host_(host), storage_(storage), profile_(profile) {}

  [[nodiscard]] net::Host& host() { return host_; }
  [[nodiscard]] const net::Host& host() const { return host_; }
  [[nodiscard]] StorageSubsystem& storage() { return storage_; }
  [[nodiscard]] const DtnProfile& profile() const { return profile_; }

  /// Optional: commits of completed inbound files land in this catalog
  /// (the shared parallel filesystem of the supercomputer-center design).
  void attachFilesystem(ParallelFilesystem* fs) { filesystem_ = fs; }
  [[nodiscard]] ParallelFilesystem* filesystem() const { return filesystem_; }

 private:
  net::Host& host_;
  StorageSubsystem& storage_;
  DtnProfile profile_;
  ParallelFilesystem* filesystem_ = nullptr;
};

/// One file moved DTN-to-DTN: read from source storage at disk speed, sent
/// over parallel TCP streams, written to destination storage, committed to
/// the destination catalog. Completion means *durably written*, not just
/// ACKed — storage can be the bottleneck and the result shows it.
class DtnTransfer {
 public:
  struct Result {
    bool completed = false;
    std::string file;
    sim::DataSize bytes = sim::DataSize::zero();
    sim::Duration elapsed = sim::Duration::zero();
    sim::DataRate averageRate = sim::DataRate::zero();
    std::uint64_t retransmits = 0;
  };

  DtnTransfer(DataTransferNode& src, DataTransferNode& dst, std::string fileName,
              sim::DataSize fileSize, std::uint16_t port);
  ~DtnTransfer();

  DtnTransfer(const DtnTransfer&) = delete;
  DtnTransfer& operator=(const DtnTransfer&) = delete;

  void start();

  std::function<void(const Result&)> onComplete;

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const Result& result() const { return result_; }

 private:
  void feed(sim::DataSize chunk);
  void maybeFinish();

  DataTransferNode& src_;
  DataTransferNode& dst_;
  std::string file_name_;
  sim::DataSize file_size_;
  std::uint16_t port_;

  net::FlowPtr flow_;
  bool reading_started_ = false;
  StreamId read_stream_{};
  StreamId write_stream_{};
  bool write_done_ = false;
  sim::SimTime started_at_;
  bool finished_ = false;
  Result result_;

  // Span tracing: a "dtn.transfer" root over the whole move plus a
  // "storage" child covering the destination write stream — completion
  // means durably written, and the child makes a storage-limited tail
  // visible in the trace.
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::SpanId span_{};
  telemetry::SpanId write_span_{};
};

}  // namespace scidmz::dtn
