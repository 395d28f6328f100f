#include "expr/compile.h"

#include <memory>
#include <string>

#include "expr/parser.h"

namespace pnut::expr {

Predicate compile_predicate(std::string_view source, const FunctionLibrary* library) {
  return Predicate{std::shared_ptr<const Node>{parse_expression(source, library)},
                   std::string(source)};
}

Action compile_action(std::string_view source, const FunctionLibrary* library) {
  return Action{std::make_shared<const Program>(parse_program(source, library)),
                std::string(source)};
}

DelaySpec compile_delay(std::string_view source, const FunctionLibrary* library) {
  return DelaySpec::computed(ComputedDelay{
      std::shared_ptr<const Node>{parse_expression(source, library)},
      std::string(source)});
}

}  // namespace pnut::expr
