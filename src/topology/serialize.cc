#include "src/topology/serialize.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "src/core/read_number.h"

namespace mihn::topology {
namespace {

const ComponentKind kAllComponentKinds[] = {
    ComponentKind::kCpuSocket,    ComponentKind::kMemoryController,
    ComponentKind::kDimm,         ComponentKind::kPcieRootPort,
    ComponentKind::kPcieSwitch,   ComponentKind::kNic,
    ComponentKind::kGpu,          ComponentKind::kNvmeSsd,
    ComponentKind::kFpga,         ComponentKind::kExternalHost,
    ComponentKind::kMonitorStore, ComponentKind::kCxlMemory,
};

const LinkKind kAllLinkKinds[] = {
    LinkKind::kInterSocket, LinkKind::kIntraSocket,  LinkKind::kPcieSwitchUp,
    LinkKind::kPcieSwitchDown, LinkKind::kInterHost, LinkKind::kPcieRootLink,
    LinkKind::kDeviceInternal, LinkKind::kCxl,
};

std::optional<ComponentKind> ParseComponentKind(std::string_view name) {
  for (const ComponentKind kind : kAllComponentKinds) {
    if (ComponentKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<LinkKind> ParseLinkKind(std::string_view name) {
  for (const LinkKind kind : kAllLinkKinds) {
    if (LinkKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// "key=value" -> value if the key matches, else nullopt.
std::optional<std::string> Attr(const std::string& token, std::string_view key) {
  if (token.size() > key.size() + 1 && token.compare(0, key.size(), key) == 0 &&
      token[key.size()] == '=') {
    return token.substr(key.size() + 1);
  }
  return std::nullopt;
}

}  // namespace

std::string ToText(const Topology& topo) {
  std::ostringstream out;
  out << "# mihn topology v1\n";
  for (const Component& c : topo.components()) {
    out << "component " << c.name << " " << ComponentKindName(c.kind);
    if (c.socket != kInvalidComponent && c.socket != c.id) {
      out << " socket=" << topo.component(c.socket).name;
    }
    out << "\n";
  }
  for (const Link& l : topo.links()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " gbps=%.6g ns=%lld", l.spec.capacity.ToGbps(),
                  static_cast<long long>(l.spec.base_latency.nanos()));
    out << "link " << topo.component(l.a).name << " " << topo.component(l.b).name << " "
        << LinkKindName(l.spec.kind) << buf << "\n";
  }
  return out.str();
}

ParseResult FromText(std::string_view text) {
  ParseResult result;
  Topology topo;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& message) {
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return result;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    if (tokens[0] == "component") {
      if (tokens.size() < 3) {
        return fail("component needs <name> <kind>");
      }
      const auto kind = ParseComponentKind(tokens[2]);
      if (!kind) {
        return fail("unknown component kind '" + tokens[2] + "'");
      }
      ComponentId socket = kInvalidComponent;
      for (size_t i = 3; i < tokens.size(); ++i) {
        if (const auto value = Attr(tokens[i], "socket")) {
          const auto owner = topo.FindComponent(*value);
          if (!owner) {
            return fail("socket '" + *value + "' not declared before use");
          }
          socket = *owner;
        } else {
          return fail("unknown component attribute '" + tokens[i] + "'");
        }
      }
      if (topo.AddComponent(*kind, tokens[1], socket) == kInvalidComponent) {
        return fail("duplicate component name '" + tokens[1] + "'");
      }
    } else if (tokens[0] == "link") {
      if (tokens.size() < 4) {
        return fail("link needs <a> <b> <kind>");
      }
      const auto a = topo.FindComponent(tokens[1]);
      const auto b = topo.FindComponent(tokens[2]);
      if (!a || !b) {
        return fail("link endpoint '" + (a ? tokens[2] : tokens[1]) + "' not declared");
      }
      const auto kind = ParseLinkKind(tokens[3]);
      if (!kind) {
        return fail("unknown link kind '" + tokens[3] + "'");
      }
      LinkSpec spec = DefaultLinkSpec(*kind);
      for (size_t i = 4; i < tokens.size(); ++i) {
        if (const auto value = Attr(tokens[i], "gbps")) {
          double gbps = 0.0;
          if (!core::ReadNumber(*value, &gbps) || !(gbps > 0.0)) {
            return fail("bad gbps value '" + *value + "' (want a finite number > 0)");
          }
          spec.capacity = sim::Bandwidth::Gbps(gbps);
        } else if (const auto ns = Attr(tokens[i], "ns")) {
          int64_t nanos = 0;
          if (!core::ReadNumber(*ns, &nanos) || nanos < 0) {
            return fail("bad ns value '" + *ns + "' (want an integer >= 0)");
          }
          spec.base_latency = sim::TimeNs::Nanos(nanos);
        } else {
          return fail("unknown link attribute '" + tokens[i] + "'");
        }
      }
      if (topo.AddLink(*a, *b, spec) == kInvalidLink) {
        return fail("invalid link (self-loop?)");
      }
    } else {
      return fail("unknown directive '" + tokens[0] + "'");
    }
  }
  result.topology = std::move(topo);
  return result;
}

std::string ToDot(const Topology& topo) {
  std::ostringstream out;
  out << "graph intra_host {\n  node [shape=box];\n";
  for (const Component& c : topo.components()) {
    out << "  \"" << c.name << "\" [label=\"" << c.name << "\\n(" << ComponentKindName(c.kind)
        << ")\"];\n";
  }
  for (const Link& l : topo.links()) {
    out << "  \"" << topo.component(l.a).name << "\" -- \"" << topo.component(l.b).name
        << "\" [label=\"" << l.spec.capacity.ToString() << " / "
        << l.spec.base_latency.ToString() << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace mihn::topology
