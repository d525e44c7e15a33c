#include "topology.hpp"

namespace portabench::gpusim {

TopologyConfig TopologyConfig::crusher_node(std::size_t devices) {
  TopologyConfig cfg;
  cfg.device_spec = GpuSpec::mi250x_gcd();
  cfg.devices = devices;
  cfg.host = simrt::CpuTopology{64, 4};  // EPYC 7A53
  return cfg;
}

TopologyConfig TopologyConfig::wombat_node(std::size_t devices) {
  TopologyConfig cfg;
  cfg.device_spec = GpuSpec::a100();
  cfg.devices = devices;
  cfg.host = simrt::CpuTopology{80, 1};  // Ampere Altra: one domain
  // PCIe 4.0 x16 sustained (of 32 GB/s theoretical), no NUMA asymmetry;
  // peer traffic bounces through the same PCIe links.
  cfg.h2d_local = LinkModel{26.0, 6.0};
  cfg.h2d_remote = cfg.h2d_local;
  cfg.d2d_near = cfg.h2d_local;
  cfg.d2d_far = cfg.h2d_local;
  return cfg;
}

DeviceTopology::DeviceTopology(TopologyConfig cfg) : cfg_(std::move(cfg)) {
  PB_EXPECTS(cfg_.devices >= 1);
  PB_EXPECTS(cfg_.host.numa_domains >= 1 && cfg_.host.cores >= cfg_.host.numa_domains);

  const bool degenerate =
      cfg_.devices == 1 && cfg_.workers_per_device == 0 && !cfg_.pin_workers;
  workers_per_device_ = cfg_.workers_per_device != 0
                            ? cfg_.workers_per_device
                            : std::max<std::size_t>(1, cfg_.host.cores / cfg_.devices);

  contexts_.reserve(cfg_.devices);
  for (std::size_t d = 0; d < cfg_.devices; ++d) {
    contexts_.push_back(std::make_unique<DeviceContext>(cfg_.device_spec));
    if (degenerate) continue;  // leave engine() on LaunchEngine::shared()
    simrt::Placement placement;
    if (cfg_.pin_workers) {
      placement = simrt::domain_placement(cfg_.host, workers_per_device_,
                                          cfg_.numa_domain_of(d));
    }
    contexts_.back()->set_engine(
        std::make_shared<LaunchEngine>(workers_per_device_, std::move(placement)));
  }
}

}  // namespace portabench::gpusim
