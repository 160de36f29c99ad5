#include "algebra/path_expr.h"

#include <algorithm>
#include <cassert>

namespace gqopt {
namespace {

// Binding strength for precedence-aware printing; higher binds tighter.
int Precedence(PathOp op) {
  switch (op) {
    case PathOp::kUnion:
      return 1;
    case PathOp::kConjunction:
      return 2;
    case PathOp::kConcat:
      return 3;
    case PathOp::kBranchLeft:
      return 4;
    case PathOp::kClosure:
    case PathOp::kRepeat:
    case PathOp::kBranchRight:
      return 5;
    case PathOp::kEdge:
    case PathOp::kReverse:
      return 6;
  }
  return 6;
}

void Print(const PathExpr& e, int parent_prec, std::string* out) {
  int prec = Precedence(e.op());
  bool parens = prec < parent_prec;
  if (parens) *out += "(";
  switch (e.op()) {
    case PathOp::kEdge:
      *out += e.label();
      break;
    case PathOp::kReverse:
      *out += "-" + e.label();
      break;
    case PathOp::kConcat: {
      Print(*e.left(), prec, out);
      *out += "/";
      if (!e.annotation().empty()) {
        *out += "{";
        for (size_t i = 0; i < e.annotation().size(); ++i) {
          if (i > 0) *out += ",";
          *out += e.annotation()[i];
        }
        *out += "}";
      }
      // Right child needs parens when it is itself a concat (left assoc).
      Print(*e.right(), prec + 1, out);
      break;
    }
    case PathOp::kUnion:
      Print(*e.left(), prec, out);
      *out += " | ";
      Print(*e.right(), prec + 1, out);
      break;
    case PathOp::kConjunction:
      Print(*e.left(), prec, out);
      *out += " & ";
      Print(*e.right(), prec + 1, out);
      break;
    case PathOp::kBranchRight:
      Print(*e.left(), prec, out);
      *out += "[";
      Print(*e.right(), 0, out);
      *out += "]";
      break;
    case PathOp::kBranchLeft:
      *out += "[";
      Print(*e.left(), 0, out);
      *out += "]";
      Print(*e.right(), prec + 1, out);
      break;
    case PathOp::kClosure:
      Print(*e.left(), prec + 1, out);
      *out += "+";
      break;
    case PathOp::kRepeat:
      Print(*e.left(), prec + 1, out);
      *out += "{";
      *out += std::to_string(e.min_repeat());
      *out += ",";
      *out += std::to_string(e.max_repeat());
      *out += "}";
      break;
  }
  if (parens) *out += ")";
}

void PrintCanonical(const PathExpr& e, std::string* out) {
  switch (e.op()) {
    case PathOp::kEdge:
      *out += e.label();
      return;
    case PathOp::kReverse:
      *out += "(-" + e.label() + ")";
      return;
    case PathOp::kConcat: {
      *out += "(";
      PrintCanonical(*e.left(), out);
      *out += "/";
      if (!e.annotation().empty()) {
        *out += "{";
        for (size_t i = 0; i < e.annotation().size(); ++i) {
          if (i > 0) *out += ",";
          *out += e.annotation()[i];
        }
        *out += "}";
      }
      PrintCanonical(*e.right(), out);
      *out += ")";
      return;
    }
    case PathOp::kUnion:
    case PathOp::kConjunction: {
      *out += "(";
      PrintCanonical(*e.left(), out);
      *out += e.op() == PathOp::kUnion ? "|" : "&";
      PrintCanonical(*e.right(), out);
      *out += ")";
      return;
    }
    case PathOp::kBranchRight: {
      *out += "(";
      PrintCanonical(*e.left(), out);
      *out += "[";
      PrintCanonical(*e.right(), out);
      *out += "])";
      return;
    }
    case PathOp::kBranchLeft: {
      *out += "([";
      PrintCanonical(*e.left(), out);
      *out += "]";
      PrintCanonical(*e.right(), out);
      *out += ")";
      return;
    }
    case PathOp::kClosure: {
      *out += "(";
      PrintCanonical(*e.left(), out);
      *out += "+)";
      return;
    }
    case PathOp::kRepeat: {
      *out += "(";
      PrintCanonical(*e.left(), out);
      *out += "{";
      *out += std::to_string(e.min_repeat());
      *out += ",";
      *out += std::to_string(e.max_repeat());
      *out += "})";
      return;
    }
  }
}

}  // namespace

AnnotationSet MakeAnnotationSet(std::vector<std::string> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

PathExprPtr PathExpr::Edge(std::string_view label) {
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kEdge;
  e->label_ = std::string(label);
  return e;
}

PathExprPtr PathExpr::Reverse(std::string_view label) {
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kReverse;
  e->label_ = std::string(label);
  return e;
}

PathExprPtr PathExpr::Concat(PathExprPtr l, PathExprPtr r) {
  return AnnotatedConcat(std::move(l), {}, std::move(r));
}

PathExprPtr PathExpr::AnnotatedConcat(PathExprPtr l, AnnotationSet annotation,
                                      PathExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kConcat;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  e->annotation_ = std::move(annotation);
  return e;
}

PathExprPtr PathExpr::Union(PathExprPtr l, PathExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kUnion;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

PathExprPtr PathExpr::Conjunction(PathExprPtr l, PathExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kConjunction;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

PathExprPtr PathExpr::BranchRight(PathExprPtr l, PathExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kBranchRight;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

PathExprPtr PathExpr::BranchLeft(PathExprPtr l, PathExprPtr r) {
  assert(l && r);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kBranchLeft;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

PathExprPtr PathExpr::Closure(PathExprPtr child) {
  assert(child);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kClosure;
  e->left_ = std::move(child);
  return e;
}

PathExprPtr PathExpr::Repeat(PathExprPtr child, int min, int max) {
  assert(child);
  assert(1 <= min && min <= max);
  auto e = std::shared_ptr<PathExpr>(new PathExpr());
  e->op_ = PathOp::kRepeat;
  e->left_ = std::move(child);
  e->min_repeat_ = min;
  e->max_repeat_ = max;
  return e;
}

bool PathExpr::Equals(const PathExprPtr& a, const PathExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->op_ != b->op_) return false;
  switch (a->op_) {
    case PathOp::kEdge:
    case PathOp::kReverse:
      return a->label_ == b->label_;
    case PathOp::kConcat:
      return a->annotation_ == b->annotation_ && Equals(a->left_, b->left_) &&
             Equals(a->right_, b->right_);
    case PathOp::kUnion:
    case PathOp::kConjunction:
    case PathOp::kBranchRight:
    case PathOp::kBranchLeft:
      return Equals(a->left_, b->left_) && Equals(a->right_, b->right_);
    case PathOp::kClosure:
      return Equals(a->left_, b->left_);
    case PathOp::kRepeat:
      return a->min_repeat_ == b->min_repeat_ &&
             a->max_repeat_ == b->max_repeat_ && Equals(a->left_, b->left_);
  }
  return false;
}

std::string PathExpr::ToString() const {
  std::string out;
  Print(*this, 0, &out);
  return out;
}

std::string PathExpr::CanonicalKey() const {
  std::string out;
  PrintCanonical(*this, &out);
  return out;
}

bool PathExpr::ContainsClosure() const {
  if (op_ == PathOp::kClosure) return true;
  if (left_ && left_->ContainsClosure()) return true;
  if (right_ && right_->ContainsClosure()) return true;
  return false;
}

bool PathExpr::HasAnnotations() const {
  if (op_ == PathOp::kConcat && !annotation_.empty()) return true;
  if (left_ && left_->HasAnnotations()) return true;
  if (right_ && right_->HasAnnotations()) return true;
  return false;
}

size_t PathExpr::Size() const {
  size_t n = 1;
  if (left_) n += left_->Size();
  if (right_) n += right_->Size();
  return n;
}

PathExprPtr StripAnnotations(const PathExprPtr& expr) {
  if (!expr) return expr;
  switch (expr->op()) {
    case PathOp::kEdge:
    case PathOp::kReverse:
      return expr;
    case PathOp::kConcat: {
      PathExprPtr l = StripAnnotations(expr->left());
      PathExprPtr r = StripAnnotations(expr->right());
      if (expr->annotation().empty() && l == expr->left() &&
          r == expr->right()) {
        return expr;
      }
      return PathExpr::Concat(std::move(l), std::move(r));
    }
    case PathOp::kUnion:
    case PathOp::kConjunction:
    case PathOp::kBranchRight:
    case PathOp::kBranchLeft: {
      PathExprPtr l = StripAnnotations(expr->left());
      PathExprPtr r = StripAnnotations(expr->right());
      if (l == expr->left() && r == expr->right()) return expr;
      switch (expr->op()) {
        case PathOp::kUnion:
          return PathExpr::Union(std::move(l), std::move(r));
        case PathOp::kConjunction:
          return PathExpr::Conjunction(std::move(l), std::move(r));
        case PathOp::kBranchRight:
          return PathExpr::BranchRight(std::move(l), std::move(r));
        default:
          return PathExpr::BranchLeft(std::move(l), std::move(r));
      }
    }
    case PathOp::kClosure: {
      PathExprPtr child = StripAnnotations(expr->left());
      if (child == expr->left()) return expr;
      return PathExpr::Closure(std::move(child));
    }
    case PathOp::kRepeat: {
      PathExprPtr child = StripAnnotations(expr->left());
      if (child == expr->left()) return expr;
      return PathExpr::Repeat(std::move(child), expr->min_repeat(),
                              expr->max_repeat());
    }
  }
  return expr;
}

std::set<std::string> CollectEdgeLabels(const PathExprPtr& expr) {
  std::set<std::string> out;
  if (!expr) return out;
  if (expr->op() == PathOp::kEdge || expr->op() == PathOp::kReverse) {
    out.insert(expr->label());
    return out;
  }
  if (expr->left()) out.merge(CollectEdgeLabels(expr->left()));
  if (expr->right()) out.merge(CollectEdgeLabels(expr->right()));
  return out;
}

PathExprPtr DesugarRepeat(const PathExprPtr& expr) {
  if (!expr) return expr;
  switch (expr->op()) {
    case PathOp::kEdge:
    case PathOp::kReverse:
      return expr;
    case PathOp::kRepeat: {
      PathExprPtr child = DesugarRepeat(expr->left());
      // phi^k as left-assoc concatenation chain.
      auto power = [&child](int k) {
        PathExprPtr acc = child;
        for (int i = 1; i < k; ++i) acc = PathExpr::Concat(acc, child);
        return acc;
      };
      PathExprPtr acc = power(expr->min_repeat());
      for (int k = expr->min_repeat() + 1; k <= expr->max_repeat(); ++k) {
        acc = PathExpr::Union(std::move(acc), power(k));
      }
      return acc;
    }
    default: {
      PathExprPtr l = expr->left() ? DesugarRepeat(expr->left()) : nullptr;
      PathExprPtr r = expr->right() ? DesugarRepeat(expr->right()) : nullptr;
      if (l == expr->left() && r == expr->right()) return expr;
      switch (expr->op()) {
        case PathOp::kConcat:
          return PathExpr::AnnotatedConcat(std::move(l), expr->annotation(),
                                           std::move(r));
        case PathOp::kUnion:
          return PathExpr::Union(std::move(l), std::move(r));
        case PathOp::kConjunction:
          return PathExpr::Conjunction(std::move(l), std::move(r));
        case PathOp::kBranchRight:
          return PathExpr::BranchRight(std::move(l), std::move(r));
        case PathOp::kBranchLeft:
          return PathExpr::BranchLeft(std::move(l), std::move(r));
        case PathOp::kClosure:
          return PathExpr::Closure(std::move(l));
        default:
          return expr;
      }
    }
  }
}

}  // namespace gqopt
