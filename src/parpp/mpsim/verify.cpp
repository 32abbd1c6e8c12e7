#include "parpp/mpsim/verify.hpp"

#include <cstring>

namespace parpp::mpsim {

namespace {

/// Tag names compare by content (the same literal can have distinct
/// addresses across translation units).
bool tag_names_equal(const CommTag& a, const CommTag& b) {
  if (a.name == nullptr || b.name == nullptr) return a.name == b.name;
  return std::strcmp(a.name, b.name) == 0;
}

}  // namespace

const char* verify_op_name(VerifyOp op) {
  switch (op) {
    case VerifyOp::kAllReduce: return "allreduce_sum";
    case VerifyOp::kAllGather: return "allgather";
    case VerifyOp::kReduceScatter: return "reduce_scatter_sum";
    case VerifyOp::kBcast: return "bcast";
    case VerifyOp::kAllToAll: return "alltoall";
    case VerifyOp::kBarrier: return "barrier";
    case VerifyOp::kSplit: return "split";
  }
  return "?";
}

bool fingerprints_match(const Fingerprint& a, const Fingerprint& b) {
  return a.op == b.op && a.count == b.count && a.root == b.root &&
         a.seq == b.seq && tag_names_equal(a.tag, b.tag);
}

std::string describe_fingerprint(const Fingerprint& fp) {
  std::string s = verify_op_name(fp.op);
  s += "(count=" + std::to_string(fp.count);
  if (fp.root >= 0) s += ", root=" + std::to_string(fp.root);
  s += ")";
  if (fp.tag.name != nullptr) {
    s += std::string(" '") + fp.tag.name + "'";
    if (fp.tag.file != nullptr)
      s += std::string(" at ") + fp.tag.file + ":" +
           std::to_string(fp.tag.line);
  } else {
    s += " (untagged)";
  }
  s += " [seq " + std::to_string(fp.seq) + "]";
  return s;
}

std::string describe_mismatch(const std::vector<Fingerprint>& fps) {
  // Group ranks by identical claim, preserving first-rank order, so all
  // ranks derive the same deterministic report.
  std::vector<std::string> members;   // "0,2,3" per group
  std::vector<std::size_t> exemplar;  // rank index whose claim to print
  for (std::size_t r = 0; r < fps.size(); ++r) {
    bool placed = false;
    for (std::size_t g = 0; g < exemplar.size(); ++g) {
      if (fingerprints_match(fps[exemplar[g]], fps[r])) {
        members[g] += ',';
        members[g] += std::to_string(r);
        placed = true;
        break;
      }
    }
    if (!placed) {
      members.push_back(std::to_string(r));
      exemplar.push_back(r);
    }
  }
  std::string s = "collective mismatch at rendezvous:";
  for (std::size_t g = 0; g < exemplar.size(); ++g) {
    s += " rank(s) " + members[g] + " called " +
         describe_fingerprint(fps[exemplar[g]]) + ";";
  }
  return s;
}

}  // namespace parpp::mpsim
