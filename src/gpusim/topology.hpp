// Multi-device topology: N simulated GCDs behind one node.
//
// The paper benchmarks Crusher's MI250X as a single GCD fed from a
// single NUMA domain, but the real node is 8 GCDs behind a 4-NUMA-domain
// EPYC 7A53 (Table II): GCD g is cabled to domain g/2, two GCDs share an
// MCM package with wide Infinity Fabric between them, and cross-package
// hops are narrower.  DeviceTopology models exactly that shape on the
// simulator: it owns one DeviceContext (memory arena + counters) and one
// LaunchEngine per device, pins each device's workers to the NUMA domain
// that feeds it (simrt::domain_placement through the engine's
// ThreadPool), and carries per-link bandwidth/latency for NUMA-local vs
// remote H2D/D2H and near (same-package) vs far (cross-package) D2D.
//
// Links are *modeled* by default — transfer calls account modeled
// seconds on the stream clock, host memcpy runs at host speed — and can
// be *throttled* (cfg.throttle_links) so the modeled time is enforced in
// wall time on the stream worker.  Throttled links are what make the
// transfer-overlap benches honest: an H2D/compute/D2H pipeline can only
// demonstrate real overlap if the transfers occupy real time.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "device.hpp"
#include "engine.hpp"
#include "simrt/affinity.hpp"

namespace portabench::gpusim {

/// One directed link's modeled characteristics (latency + bandwidth).
/// Every link is duplex: H2D and D2H ride separate directions.
struct LinkModel {
  double bw_gbs = 16.0;    ///< GB/s (1e9 bytes per second)
  double latency_us = 5.0; ///< per-transfer setup latency

  /// Seconds to move `bytes` one way (fractional byte counts allowed for
  /// the analytical model's averaged panels).
  [[nodiscard]] double seconds(double bytes) const noexcept {
    return latency_us * 1e-6 + bytes / (bw_gbs * 1e9);
  }
};

/// Shape of the node: how many devices, which host CPU feeds them, and
/// the modeled link characteristics between the pieces.  This is the one
/// node description: the simulator (DeviceTopology) and the analytical
/// model (perfmodel) both read links and the domain map from here.
struct TopologyConfig {
  GpuSpec device_spec = GpuSpec::mi250x_gcd();
  std::size_t devices = 1;

  /// Host CPU that stages transfers; its NUMA domain count drives which
  /// H2D link (local or remote) a staging buffer sees.
  simrt::CpuTopology host{1, 1};

  /// Host workers each device's LaunchEngine forks to.  0 resolves to
  /// host.cores / devices (at least 1) so the simulated node's compute
  /// splits evenly, matching one EPYC L3 complex driving each GCD.
  std::size_t workers_per_device = 0;

  /// Pin each device's workers to the device's NUMA domain
  /// (domain_placement).  Off: workers float, like OMP_PROC_BIND=false.
  bool pin_workers = true;

  // Per-link models.  Defaults follow the Crusher numbers: host-attached
  // Infinity Fabric at ~36 GB/s to the local domain, roughly a third of
  // that when the staging buffer lives in a remote domain and the
  // transfer crosses the socket fabric first; GCD pairs inside one MCM
  // see the wide in-package fabric, cross-package hops the narrow one.
  LinkModel h2d_local{36.0, 5.0};
  LinkModel h2d_remote{12.0, 8.0};
  LinkModel d2d_near{200.0, 2.0};
  LinkModel d2d_far{50.0, 3.0};

  /// Enforce modeled link time in wall time on the stream worker (spin
  /// after the host memcpy until the modeled seconds elapsed).  Benches
  /// measuring overlap turn this on; tests leave it off.
  bool throttle_links = false;

  /// NUMA domain that feeds a device: `device * host.numa_domains /
  /// devices` (Crusher: GCD g -> domain g/2).
  [[nodiscard]] std::size_t numa_domain_of(std::size_t device) const {
    PB_EXPECTS(device < devices);
    return device * host.numa_domains / devices;
  }
  /// MCM package of a device (two GCDs per MI250X package).
  [[nodiscard]] std::size_t package_of(std::size_t device) const {
    PB_EXPECTS(device < devices);
    return device / 2;
  }
  /// Link a host-to-device transfer rides, given the staging buffer's
  /// home domain: local when it matches the device's feeding domain.
  [[nodiscard]] const LinkModel& h2d_link(std::size_t device, std::size_t src_domain) const {
    return src_domain == numa_domain_of(device) ? h2d_local : h2d_remote;
  }
  /// Device-to-device link: wide in-package fabric for an MCM pair,
  /// narrow cross-package hop otherwise.
  [[nodiscard]] const LinkModel& d2d_link(std::size_t src, std::size_t dst) const {
    return package_of(src) == package_of(dst) ? d2d_near : d2d_far;
  }

  /// Crusher node: `devices` MI250X GCDs (8 = full node) behind a
  /// 64-core 4-NUMA EPYC 7A53.
  [[nodiscard]] static TopologyConfig crusher_node(std::size_t devices = 8);
  /// Wombat-style pairing: 2 A100s behind a single-domain host over
  /// PCIe 4.0 x16 links (no near/far D2D asymmetry worth modeling).
  [[nodiscard]] static TopologyConfig wombat_node(std::size_t devices = 2);
};

/// N simulated devices with per-device contexts, engines and links.
///
/// Device d is fed from NUMA domain config().numa_domain_of(d) and its
/// engine's workers are pinned there when cfg.pin_workers; links come
/// from config().h2d_link / d2d_link.  The degenerate single-device topology
/// with default worker count and no pinning installs *no* private
/// engine, so context(0) launches through LaunchEngine::shared() —
/// bit-for-bit and engine-for-engine today's single-device behavior.
class DeviceTopology {
 public:
  explicit DeviceTopology(TopologyConfig cfg);
  DeviceTopology(const DeviceTopology&) = delete;
  DeviceTopology& operator=(const DeviceTopology&) = delete;

  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t devices() const noexcept { return contexts_.size(); }
  [[nodiscard]] std::size_t workers_per_device() const noexcept { return workers_per_device_; }

  [[nodiscard]] DeviceContext& context(std::size_t device) const {
    PB_EXPECTS(device < contexts_.size());
    return *contexts_[device];
  }
  /// The engine device `device` launches through (private per-device
  /// engine, or the process-wide shared one in the degenerate topology).
  [[nodiscard]] LaunchEngine& engine(std::size_t device) const {
    return context(device).engine();
  }

  /// NUMA domain that feeds a device (config().numa_domain_of).
  [[nodiscard]] std::size_t numa_domain_of(std::size_t device) const {
    return cfg_.numa_domain_of(device);
  }

 private:
  TopologyConfig cfg_;
  std::size_t workers_per_device_ = 1;
  std::vector<std::unique_ptr<DeviceContext>> contexts_;
};

}  // namespace portabench::gpusim
