// Fixture for the engine-term-copy rule (tools/lint/lint.py): the rule
// covers src/engine/ only, so a copy outside it is not flagged.
#include <string>

std::string Name(const Dictionary& dict, TermId id) {
  std::string copied = dict.Decode(id);
  return copied;
}
