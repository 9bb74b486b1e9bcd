#include "driver/validate.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "graph/graph.h"
#include "obs/export.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

using mpcstab::obs::JsonValue;

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// A JSON number member that is a whole number, or nullopt.
std::optional<std::uint64_t> whole(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber || v->number < 0 ||
      v->number != static_cast<double>(static_cast<std::uint64_t>(v->number))) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v->number);
}

bool is_true(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
}

Verdict fail(std::string reason) {
  Verdict v;
  v.reason = std::move(reason);
  return v;
}

/// Checks the op-specific answer invariants; "" when they hold.
std::string answer_problem(const JsonValue& answer, const Expectation& e) {
  const Planned& p = *e.planned;
  if (p.op == "connectivity") {
    const auto components = whole(answer, "components");
    if (!components) return "answer has no component count";
    if (e.components && *components != *e.components) {
      return "components " + std::to_string(*components) + " != BFS " +
             std::to_string(*e.components);
    }
    if (!is_true(answer, "converged")) return "connectivity did not converge";
  } else if (p.op == "coloring") {
    if (!is_true(answer, "proper")) return "coloring is not proper";
  } else if (p.op == "mis") {
    if (!is_true(answer, "independent")) return "mis is not independent";
  } else if (p.op == "lifting") {
    if (whole(answer, "simulations") != p.simulations) {
      return "lifting ran the wrong number of simulations";
    }
  } else if (p.op == "sensitivity") {
    if (whole(answer, "seeds") != p.seeds) {
      return "sensitivity sampled the wrong number of seeds";
    }
  }
  return "";
}

}  // namespace

Verdict validate(std::string_view wire, const Expectation& expect) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return fail("no complete head");
  const std::string_view head = wire.substr(0, head_end);
  const std::string_view body = wire.substr(head_end + 4);
  if (head.substr(0, 13) != "HTTP/1.1 200 ") {
    return fail("status line \"" +
                std::string(head.substr(0, head.find("\r\n"))) + "\"");
  }
  std::optional<std::size_t> length;
  std::string x_cache;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    const std::size_t start = pos + 2;
    const std::size_t end = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, end == std::string_view::npos ? head.size() - start
                                             : end - start);
    pos = end;
    const std::size_t colon = line.find(": ");
    if (colon == std::string_view::npos) return fail("malformed header");
    const std::string name = lower(line.substr(0, colon));
    const std::string_view value = line.substr(colon + 2);
    if (name == "content-length") {
      length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9' || *length > (1u << 30)) {
          return fail("malformed Content-Length");
        }
        *length = *length * 10 + static_cast<std::size_t>(c - '0');
      }
    } else if (name == "x-cache") {
      x_cache = value;
    }
  }
  if (!length || *length != body.size()) {
    return fail("body is " + std::to_string(body.size()) +
                " bytes, Content-Length says " +
                (length ? std::to_string(*length) : std::string("nothing")));
  }
  if (x_cache != expect.x_cache) {
    return fail("X-Cache \"" + x_cache + "\", expected \"" +
                std::string(expect.x_cache) + "\"");
  }
  const std::optional<JsonValue> doc = mpcstab::obs::parse_json(body);
  if (!doc || doc->kind != JsonValue::Kind::kObject) {
    return fail("body is not a JSON object");
  }
  if (doc->str("event") != "result" || !is_true(*doc, "ok")) {
    return fail("not an ok result event");
  }
  if (doc->str("op") != expect.planned->op) return fail("wrong op");
  const auto rounds = whole(*doc, "rounds");
  const auto words = whole(*doc, "words");
  const JsonValue* answer = doc->find("answer");
  std::optional<std::string> answer_text = answer_of(body);
  if (!rounds || !words || answer == nullptr ||
      answer->kind != JsonValue::Kind::kObject || !answer_text) {
    return fail("result lacks rounds, words or answer");
  }
  if (std::string problem = answer_problem(*answer, expect); !problem.empty()) {
    return fail(std::move(problem));
  }
  Verdict v;
  v.ok = true;
  v.body = std::string(body);
  v.rounds = *rounds;
  v.words = *words;
  v.answer = std::move(*answer_text);
  return v;
}

std::optional<std::string> answer_of(std::string_view body) {
  // The gateway writes "answer" as the last member, verbatim from the
  // executor: {...,"answer":{...}}\n
  constexpr std::string_view kKey = ",\"answer\":";
  const std::size_t at = body.rfind(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = body.substr(at + kKey.size());
  while (!rest.empty() && (rest.back() == '\n' || rest.back() == ' ')) {
    rest.remove_suffix(1);
  }
  if (rest.size() < 3 || rest.back() != '}') return std::nullopt;
  rest.remove_suffix(1);  // the result object's closing brace
  return std::string(rest);
}

std::string comparable(const Planned& p, std::string_view answer,
                       std::uint64_t rounds, std::uint64_t words) {
  std::string kept(answer);
  if (p.backend == "native") {
    const auto doc = mpcstab::obs::parse_json(answer);
    kept = doc ? std::to_string(doc->num("components")) : "?";
  }
  return kept + "|" + std::to_string(rounds) + "|" + std::to_string(words);
}

std::uint64_t bfs_components(std::string_view request_body) {
  const auto parsed = mpcstab::service::parse_request(request_body);
  if (!parsed.request) return 0;
  const mpcstab::Graph g = mpcstab::service::build_graph(parsed.request->graph);
  std::vector<bool> seen(g.n(), false);
  std::vector<mpcstab::Node> frontier;
  std::uint64_t components = 0;
  for (mpcstab::Node s = 0; s < g.n(); ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = true;
    frontier.assign(1, s);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const mpcstab::Node v = frontier[head];
      for (const mpcstab::Node u : g.neighbors(v)) {
        if (!seen[u]) {
          seen[u] = true;
          frontier.push_back(u);
        }
      }
    }
  }
  return components;
}

}  // namespace perfbench
