#include "ra/table.h"

#include <algorithm>
#include <numeric>

#include "util/sort_unique.h"

namespace gqopt {

int Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column) return static_cast<int>(i);
  }
  return -1;
}

void Table::AddRow(const NodeId* values) {
  std::vector<NodeId>& data = Mutable();
  data.insert(data.end(), values, values + arity());
  sort_prefix_ = 0;
  sort_desc_.clear();
}

void Table::MarkSortPrefixFrom(const Table& src, size_t prefix) {
  prefix = std::min(prefix, src.sort_prefix_);
  std::vector<bool> desc;
  if (!src.sort_desc_.empty()) {
    desc.assign(src.sort_desc_.begin(),
                src.sort_desc_.begin() +
                    static_cast<long>(std::min(prefix, src.sort_desc_.size())));
  }
  MarkSortPrefix(prefix, std::move(desc));
}

Status Table::SortDistinct(const ExecContext& ctx) {
  size_t n = rows();
  size_t k = arity();
  if (n <= 1 || k == 0) {
    MarkSorted();
    return Status::OK();
  }
  const NodeId* base = block_->data();
  auto same_row = [base, k](size_t a, size_t b) {
    return std::equal(base + a * k, base + (a + 1) * k, base + b * k);
  };
  std::vector<NodeId> out;
  if (sorted()) {
    // Already sorted: distinct-on-distinct (edge scans, closure results)
    // finds no adjacent duplicate and keeps the shared block as is.
    size_t r = 1;
    while (r < n && !same_row(r - 1, r)) ++r;
    if (r == n) return Status::OK();
    out.assign(base, base + r * k);
    for (; r < n; ++r) {
      if (!same_row(r - 1, r)) {
        out.insert(out.end(), base + r * k, base + (r + 1) * k);
      }
    }
  } else if (k <= 2) {
    bool ok = SortUniqueTuples(
        n, k, [base, k](size_t r, size_t c) { return base[r * k + c]; }, ctx,
        [&out, k](size_t m) { out.resize(m * k); },
        [&out, k](size_t i, NodeId a, NodeId b) {
          out[i * k] = a;
          if (k == 2) out[i * k + 1] = b;
        });
    if (!ok) return AbortStatus(ctx, "distinct");
  } else {
    // Arity 3+: index sort with a lexicographic comparator.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [base, k](size_t a, size_t b) {
      return std::lexicographical_compare(base + a * k, base + (a + 1) * k,
                                          base + b * k, base + (b + 1) * k);
    });
    order.erase(std::unique(order.begin(), order.end(), same_row),
                order.end());
    if (ctx.deadline.Expired()) return AbortStatus(ctx, "distinct");
    out.reserve(order.size() * k);
    for (size_t row : order) {
      out.insert(out.end(), base + row * k, base + (row + 1) * k);
    }
  }
  AdoptSorted(std::move(out));
  return Status::OK();
}

void Table::SortDistinct() {
  ExecContext serial;
  serial.dop = 1;
  // No deadline and no memory tracker: the serial run cannot abort.
  (void)SortDistinct(serial);
}

Table Table::RenamedTo(std::vector<std::string> columns) const {
  Table out(std::move(columns));
  out.block_ = block_;  // shared copy-on-write: no data copy
  out.sort_prefix_ = sort_prefix_;  // renaming is positional: order is kept
  out.sort_desc_ = sort_desc_;
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i];
  }
  out += "\n";
  size_t shown = std::min(rows(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < arity(); ++c) {
      if (c > 0) out += " | ";
      out += std::to_string(At(r, c));
    }
    out += "\n";
  }
  if (shown < rows()) {
    out += "... (" + std::to_string(rows()) + " rows total)\n";
  }
  return out;
}

}  // namespace gqopt
