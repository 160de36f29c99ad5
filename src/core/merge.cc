#include "core/merge.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace gqopt {
namespace {

void InsertSorted(std::vector<std::string>* set, const std::string& value) {
  auto it = std::lower_bound(set->begin(), set->end(), value);
  if (it == set->end() || *it != value) set->insert(it, value);
}

// Position-wise union of annotations of two structurally equal skeletons.
PathExprPtr MergeExprs(const PathExprPtr& a, const PathExprPtr& b) {
  assert(a->op() == b->op());
  switch (a->op()) {
    case PathOp::kEdge:
    case PathOp::kReverse:
      return a;
    case PathOp::kConcat: {
      AnnotationSet merged = a->annotation();
      for (const std::string& label : b->annotation()) {
        InsertSorted(&merged, label);
      }
      return PathExpr::AnnotatedConcat(MergeExprs(a->left(), b->left()),
                                       std::move(merged),
                                       MergeExprs(a->right(), b->right()));
    }
    case PathOp::kUnion:
      return PathExpr::Union(MergeExprs(a->left(), b->left()),
                             MergeExprs(a->right(), b->right()));
    case PathOp::kConjunction:
      return PathExpr::Conjunction(MergeExprs(a->left(), b->left()),
                                   MergeExprs(a->right(), b->right()));
    case PathOp::kBranchRight:
      return PathExpr::BranchRight(MergeExprs(a->left(), b->left()),
                                   MergeExprs(a->right(), b->right()));
    case PathOp::kBranchLeft:
      return PathExpr::BranchLeft(MergeExprs(a->left(), b->left()),
                                  MergeExprs(a->right(), b->right()));
    case PathOp::kClosure:
      return PathExpr::Closure(MergeExprs(a->left(), b->left()));
    case PathOp::kRepeat:
      return PathExpr::Repeat(MergeExprs(a->left(), b->left()),
                              a->min_repeat(), a->max_repeat());
  }
  return a;
}

bool IsSubset(const std::vector<std::string>& sub,
              const std::vector<std::string>& super) {
  // Both sorted unique.
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

// Rebuilds `expr` with redundant junction annotations removed.
PathExprPtr PruneExpr(const PathExprPtr& expr, const GraphSchema& schema) {
  switch (expr->op()) {
    case PathOp::kEdge:
    case PathOp::kReverse:
      return expr;
    case PathOp::kConcat: {
      PathExprPtr left = PruneExpr(expr->left(), schema);
      PathExprPtr right = PruneExpr(expr->right(), schema);
      AnnotationSet annotation = expr->annotation();
      if (!annotation.empty()) {
        // Paper §3.2.2 (as applied in Examples 12/13): the annotation is
        // redundant when one adjacent side already guarantees it — every
        // schema-possible target of the left part, or every possible source
        // of the right part, is in the annotation. Note this deliberately
        // keeps annotations that are semantically implied by the *join* of
        // both sides but still shrink one side's scan (the Organisation
        // semi-join of Fig 17 is exactly such a filter).
        std::vector<std::string> left_targets =
            PossibleTargetLabels(expr->left(), schema);
        std::vector<std::string> right_sources =
            PossibleSourceLabels(expr->right(), schema);
        std::sort(left_targets.begin(), left_targets.end());
        std::sort(right_sources.begin(), right_sources.end());
        if (IsSubset(left_targets, annotation) ||
            IsSubset(right_sources, annotation)) {
          annotation.clear();
        }
      }
      return PathExpr::AnnotatedConcat(std::move(left), std::move(annotation),
                                       std::move(right));
    }
    case PathOp::kUnion:
      return PathExpr::Union(PruneExpr(expr->left(), schema),
                             PruneExpr(expr->right(), schema));
    case PathOp::kConjunction:
      return PathExpr::Conjunction(PruneExpr(expr->left(), schema),
                                   PruneExpr(expr->right(), schema));
    case PathOp::kBranchRight:
      return PathExpr::BranchRight(PruneExpr(expr->left(), schema),
                                   PruneExpr(expr->right(), schema));
    case PathOp::kBranchLeft:
      return PathExpr::BranchLeft(PruneExpr(expr->left(), schema),
                                  PruneExpr(expr->right(), schema));
    case PathOp::kClosure:
      return PathExpr::Closure(PruneExpr(expr->left(), schema));
    case PathOp::kRepeat:
      return PathExpr::Repeat(PruneExpr(expr->left(), schema),
                              expr->min_repeat(), expr->max_repeat());
  }
  return expr;
}

}  // namespace

std::string MergedTriple::ToString() const {
  auto set_to_string = [](const std::vector<std::string>& labels) {
    if (labels.empty()) return std::string("*");
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ",";
      out += labels[i];
    }
    out += "}";
    return out;
  };
  std::string out = "(";
  out += set_to_string(source_labels);
  out += ", ";
  out += expr ? expr->ToString() : "<null>";
  out += ", ";
  out += set_to_string(target_labels);
  out += ")";
  return out;
}

std::vector<MergedTriple> MergeTriples(const TripleSet& triples) {
  // Group by skeleton; std::map keeps deterministic output order.
  std::map<std::string, MergedTriple> groups;
  std::vector<std::string> order;
  for (const SchemaTriple& t : triples) {
    std::string key = StripAnnotations(t.expr)->CanonicalKey();
    auto it = groups.find(key);
    if (it == groups.end()) {
      MergedTriple merged;
      merged.source_labels = {t.source_label};
      merged.target_labels = {t.target_label};
      merged.expr = t.expr;
      merged.replacements = t.replacements;
      groups.emplace(key, std::move(merged));
      order.push_back(key);
      continue;
    }
    MergedTriple& merged = it->second;
    InsertSorted(&merged.source_labels, t.source_label);
    InsertSorted(&merged.target_labels, t.target_label);
    merged.expr = MergeExprs(merged.expr, t.expr);
    merged.replacements.insert(merged.replacements.end(),
                               t.replacements.begin(), t.replacements.end());
    std::sort(merged.replacements.begin(), merged.replacements.end());
    merged.replacements.erase(
        std::unique(merged.replacements.begin(), merged.replacements.end()),
        merged.replacements.end());
  }
  std::vector<MergedTriple> out;
  out.reserve(order.size());
  for (const std::string& key : order) {
    out.push_back(std::move(groups.at(key)));
  }
  return out;
}

void PruneRedundantAnnotations(const GraphSchema& schema,
                               std::vector<MergedTriple>* triples) {
  for (MergedTriple& triple : *triples) {
    triple.expr = PruneExpr(triple.expr, schema);
    std::vector<std::string> sources =
        PossibleSourceLabels(triple.expr, schema);
    std::sort(sources.begin(), sources.end());
    if (IsSubset(sources, triple.source_labels)) {
      triple.source_labels.clear();
    }
    std::vector<std::string> targets =
        PossibleTargetLabels(triple.expr, schema);
    std::sort(targets.begin(), targets.end());
    if (IsSubset(targets, triple.target_labels)) {
      triple.target_labels.clear();
    }
  }
}

std::vector<MergedTriple> StripAllAnnotations(
    std::vector<MergedTriple> triples) {
  std::map<std::string, MergedTriple> dedup;
  std::vector<std::string> order;
  for (MergedTriple& triple : triples) {
    triple.expr = StripAnnotations(triple.expr);
    triple.source_labels.clear();
    triple.target_labels.clear();
    std::string key = triple.expr->CanonicalKey();
    auto it = dedup.find(key);
    if (it == dedup.end()) {
      dedup.emplace(key, std::move(triple));
      order.push_back(key);
    } else {
      it->second.replacements.insert(it->second.replacements.end(),
                                     triple.replacements.begin(),
                                     triple.replacements.end());
      std::sort(it->second.replacements.begin(),
                it->second.replacements.end());
      it->second.replacements.erase(
          std::unique(it->second.replacements.begin(),
                      it->second.replacements.end()),
          it->second.replacements.end());
    }
  }
  std::vector<MergedTriple> out;
  out.reserve(order.size());
  for (const std::string& key : order) out.push_back(std::move(dedup.at(key)));
  return out;
}

}  // namespace gqopt
