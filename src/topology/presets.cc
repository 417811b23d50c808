#include "src/topology/presets.h"

#include <string>

namespace mihn::topology {
namespace {

std::string Name(const std::string& prefix, int i) { return prefix + std::to_string(i); }

}  // namespace

Server BuildServer(const ServerSpec& spec) {
  Server server;
  Topology& topo = server.topo;

  int nic_count = 0;
  int gpu_count = 0;
  int ssd_count = 0;
  int host_count = 0;

  // Attaches one leaf's worth of devices below |parent| using |down| links.
  auto add_devices = [&](ComponentId parent, ComponentId socket, const LinkSpec& down) {
    for (int n = 0; n < spec.nics_per_leaf; ++n) {
      const ComponentId nic = topo.AddComponent(ComponentKind::kNic, Name("nic", nic_count++),
                                                socket);
      topo.AddLink(parent, nic, down);
      server.nics.push_back(nic);
      if (spec.external_host_per_nic) {
        const ComponentId host =
            topo.AddComponent(ComponentKind::kExternalHost, Name("remote", host_count++));
        topo.AddLink(nic, host, spec.inter_host);
        server.external_hosts.push_back(host);
      }
    }
    for (int g = 0; g < spec.gpus_per_leaf; ++g) {
      const ComponentId gpu = topo.AddComponent(ComponentKind::kGpu, Name("gpu", gpu_count++),
                                                socket);
      topo.AddLink(parent, gpu, down);
      server.gpus.push_back(gpu);
    }
    for (int s = 0; s < spec.ssds_per_leaf; ++s) {
      const ComponentId ssd = topo.AddComponent(ComponentKind::kNvmeSsd,
                                                Name("ssd", ssd_count++), socket);
      topo.AddLink(parent, ssd, down);
      server.ssds.push_back(ssd);
    }
  };

  for (int s = 0; s < spec.sockets; ++s) {
    const std::string sname = Name("s", s);
    const ComponentId socket = topo.AddComponent(ComponentKind::kCpuSocket, sname);
    server.sockets.push_back(socket);

    for (int m = 0; m < spec.memory_controllers_per_socket; ++m) {
      const ComponentId mc = topo.AddComponent(ComponentKind::kMemoryController,
                                               sname + ".mc" + std::to_string(m), socket);
      topo.AddLink(socket, mc, spec.intra_socket);
      for (int d = 0; d < spec.dimms_per_controller; ++d) {
        const ComponentId dimm = topo.AddComponent(
            ComponentKind::kDimm, sname + ".mc" + std::to_string(m) + ".dimm" + std::to_string(d),
            socket);
        topo.AddLink(mc, dimm, spec.device_internal);
        server.dimms.push_back(dimm);
      }
    }

    for (int r = 0; r < spec.root_ports_per_socket; ++r) {
      const std::string rname = sname + ".rp" + std::to_string(r);
      const ComponentId rp = topo.AddComponent(ComponentKind::kPcieRootPort, rname, socket);
      topo.AddLink(socket, rp, spec.intra_socket);

      if (spec.switches_per_root_port == 0) {
        add_devices(rp, socket, spec.root_link);
      } else {
        for (int w = 0; w < spec.switches_per_root_port; ++w) {
          const ComponentId sw = topo.AddComponent(ComponentKind::kPcieSwitch,
                                                   rname + ".sw" + std::to_string(w), socket);
          topo.AddLink(rp, sw, spec.switch_up);
          add_devices(sw, socket, spec.switch_down);
        }
      }
    }
  }

  // Inter-socket links: chain (plus a closing ring for >2 sockets), with
  // |inter_socket_links| parallel links per adjacent pair.
  for (int s = 0; s + 1 < spec.sockets; ++s) {
    for (int p = 0; p < spec.inter_socket_links; ++p) {
      topo.AddLink(server.sockets[static_cast<size_t>(s)],
                   server.sockets[static_cast<size_t>(s + 1)], spec.inter_socket);
    }
  }
  if (spec.sockets > 2) {
    for (int p = 0; p < spec.inter_socket_links; ++p) {
      topo.AddLink(server.sockets.back(), server.sockets.front(), spec.inter_socket);
    }
  }

  int cxl_count = 0;
  for (int s = 0; s < spec.sockets; ++s) {
    for (int c = 0; c < spec.cxl_memory_per_socket; ++c) {
      const ComponentId cxl = topo.AddComponent(ComponentKind::kCxlMemory,
                                                Name("cxlmem", cxl_count++),
                                                server.sockets[static_cast<size_t>(s)]);
      topo.AddLink(server.sockets[static_cast<size_t>(s)], cxl, spec.cxl);
      server.cxl_memories.push_back(cxl);
    }
  }

  if (spec.monitor_store) {
    server.monitor_store =
        topo.AddComponent(ComponentKind::kMonitorStore, "monitor_store", server.sockets[0]);
    topo.AddLink(server.sockets[0], server.monitor_store, spec.intra_socket);
  }

  return server;
}

Server CommodityTwoSocket() { return BuildServer(ServerSpec{}); }

Server DgxClass() {
  ServerSpec spec;
  spec.sockets = 2;
  spec.memory_controllers_per_socket = 4;
  spec.dimms_per_controller = 2;
  spec.root_ports_per_socket = 2;
  spec.switches_per_root_port = 1;
  spec.nics_per_leaf = 1;
  spec.gpus_per_leaf = 2;
  spec.ssds_per_leaf = 1;
  return BuildServer(spec);
}

Server EdgeNode() {
  ServerSpec spec;
  spec.sockets = 1;
  spec.memory_controllers_per_socket = 1;
  spec.dimms_per_controller = 1;
  spec.root_ports_per_socket = 1;
  spec.switches_per_root_port = 0;
  spec.nics_per_leaf = 1;
  spec.gpus_per_leaf = 0;
  spec.ssds_per_leaf = 1;
  return BuildServer(spec);
}

}  // namespace mihn::topology
