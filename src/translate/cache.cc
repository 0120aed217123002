#include "translate/cache.h"

#include <cstring>
#include <unordered_map>
#include <vector>

namespace ctdb::translate {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out->append(bytes, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out->append(bytes, sizeof(v));
}

}  // namespace

std::string CanonicalTranslationKey(const ltl::Formula* nnf,
                                    const TranslateOptions& options) {
  std::string out;
  // Post-order DFS over the DAG; each node is serialized once, at the moment
  // its dense id is assigned, referencing the (already assigned) child ids.
  // Hash-consing makes shared subterms shared pointers, so the visit order —
  // and therefore the byte string — is a function of formula structure only.
  std::unordered_map<const ltl::Formula*, uint32_t> ids;
  struct Frame {
    const ltl::Formula* f;
    bool expanded;
  };
  std::vector<Frame> stack;
  stack.push_back({nnf, false});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (ids.count(frame.f) != 0) continue;
    if (!frame.expanded) {
      stack.push_back({frame.f, true});
      if (frame.f->left() != nullptr) stack.push_back({frame.f->left(), false});
      if (frame.f->right() != nullptr) {
        stack.push_back({frame.f->right(), false});
      }
      continue;
    }
    const uint32_t id = static_cast<uint32_t>(ids.size());
    ids.emplace(frame.f, id);
    out.push_back(static_cast<char>(frame.f->op()));
    if (frame.f->op() == ltl::Op::kProp) AppendU32(&out, frame.f->prop());
    if (frame.f->left() != nullptr) AppendU32(&out, ids.at(frame.f->left()));
    if (frame.f->right() != nullptr) AppendU32(&out, ids.at(frame.f->right()));
  }
  AppendU32(&out, ids.at(nnf));
  // Every knob that changes the translation output participates in the key.
  out.push_back(options.simplify_formula ? 1 : 0);
  out.push_back(options.prune ? 1 : 0);
  out.push_back(options.reduce ? 1 : 0);
  AppendU64(&out, options.tableau.max_nodes);
  AppendU64(&out, options.tableau.max_work);
  return out;
}

}  // namespace ctdb::translate
