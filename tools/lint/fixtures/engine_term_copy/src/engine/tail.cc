// Fixture for the engine-term-copy rule (tools/lint/lint.py): each line
// marked `expect: engine-term-copy` copies a decoded term and must be
// flagged; the other lines keep a view or a reference and must not be.
#include <string>
#include <string_view>

namespace fixture {

void Tail(const Dictionary& dict, const Dictionary* dict_, TermId id) {
  std::string copied = dict.Decode(id);  // expect: engine-term-copy
  const std::string kept = dict_->Decode(id);  // expect: engine-term-copy
  std::string built(dict.Decode(id));  // expect: engine-term-copy
  std::string braced{dict.Decode(id)};  // expect: engine-term-copy
  auto deduced = dict.Decode(id);  // expect: engine-term-copy
  Use(std::string(dict.Decode(id)));  // expect: engine-term-copy

  const std::string& ref = dict.Decode(id);
  std::string_view view = dict_->Decode(id);
  const auto& also_ref = dict.Decode(id);
  std::string label = "Decode(id)";
  Result<std::string> safe = dict.SafeDecode(id);
  // std::string in_comment = dict.Decode(id);
}

}  // namespace fixture
