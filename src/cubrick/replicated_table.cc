#include "cubrick/replicated_table.h"

namespace scalewall::cubrick {

ReplicatedTable::ReplicatedTable(std::string name, uint32_t key_cardinality,
                                 std::vector<Dimension> attributes)
    : name_(std::move(name)),
      key_cardinality_(key_cardinality),
      attributes_(std::move(attributes)) {
  columns_.resize(attributes_.size());
  for (auto& column : columns_) {
    column.assign(key_cardinality_, kNoAttribute);
  }
}

int ReplicatedTable::AttributeIndex(const std::string& attr_name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == attr_name) return static_cast<int>(i);
  }
  return -1;
}

Status ReplicatedTable::Set(const DimensionEntry& entry) {
  if (entry.key >= key_cardinality_) {
    return Status::InvalidArgument("key out of domain");
  }
  if (entry.attributes.size() != attributes_.size()) {
    return Status::InvalidArgument("attribute arity mismatch");
  }
  for (size_t a = 0; a < entry.attributes.size(); ++a) {
    if (entry.attributes[a] >= attributes_[a].cardinality) {
      return Status::InvalidArgument("attribute value out of domain for " +
                                     attributes_[a].name);
    }
  }
  bool fresh = true;
  for (size_t a = 0; a < columns_.size(); ++a) {
    if (columns_[a][entry.key] != kNoAttribute) fresh = false;
  }
  if (columns_.empty()) fresh = false;  // attribute-less tables: count once
  for (size_t a = 0; a < columns_.size(); ++a) {
    columns_[a][entry.key] = entry.attributes[a];
  }
  if (fresh) ++num_entries_;
  return Status::Ok();
}

Status ReplicatedTable::RestoreColumns(
    std::vector<std::vector<uint32_t>> columns, size_t num_entries) {
  if (columns.size() != attributes_.size()) {
    return Status::InvalidArgument("restore: column count mismatch");
  }
  for (size_t a = 0; a < columns.size(); ++a) {
    if (columns[a].size() != key_cardinality_) {
      return Status::InvalidArgument("restore: column length mismatch");
    }
    // Scans size dense group-by slots by the attribute's cardinality:
    // an out-of-domain code would index past them.
    for (uint32_t code : columns[a]) {
      if (code != kNoAttribute && code >= attributes_[a].cardinality) {
        return Status::InvalidArgument(
            "restore: attribute value out of domain for " +
            attributes_[a].name);
      }
    }
  }
  columns_ = std::move(columns);
  num_entries_ = num_entries;
  return Status::Ok();
}

}  // namespace scalewall::cubrick
