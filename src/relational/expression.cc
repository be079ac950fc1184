#include "relational/expression.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace ppdb::rel {

namespace {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(Value value)
      : Expression(Kind::kLiteral), value_(std::move(value)) {}

  Result<Value> Evaluate(const Row&, const Schema&) const override {
    return value_;
  }

  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

class ColumnExpr final : public Expression {
 public:
  explicit ColumnExpr(std::string name)
      : Expression(Kind::kColumn), name_(std::move(name)) {}

  Result<Value> Evaluate(const Row& row, const Schema& schema) const override {
    PPDB_ASSIGN_OR_RETURN(int j, schema.IndexOf(name_));
    if (static_cast<size_t>(j) >= row.values.size()) {
      return Status::Internal("row narrower than schema");
    }
    return row.values[static_cast<size_t>(j)];
  }

  std::string ToString() const override { return name_; }

 private:
  std::string name_;
};

class UnaryExpr final : public Expression {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expression(Kind::kUnary), op_(op), operand_(std::move(operand)) {}

  Result<Value> Evaluate(const Row& row, const Schema& schema) const override {
    PPDB_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(row, schema));
    switch (op_) {
      case UnaryOp::kIsNull:
        return Value::Bool(v.is_null());
      case UnaryOp::kNot: {
        if (v.is_null()) return Value::Null();
        PPDB_ASSIGN_OR_RETURN(bool b, v.AsBool());
        return Value::Bool(!b);
      }
      case UnaryOp::kNegate: {
        if (v.is_null()) return Value::Null();
        if (v.type() == DataType::kInt64) {
          return Value::Int64(-v.AsInt64().value());
        }
        PPDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
        return Value::Double(-d);
      }
    }
    return Status::Internal("unhandled unary op");
  }

  std::string ToString() const override {
    switch (op_) {
      case UnaryOp::kNot:
        return StrCat({"NOT ", operand_->ToString()});
      case UnaryOp::kNegate:
        return StrCat({"-", operand_->ToString()});
      case UnaryOp::kIsNull:
        return operand_->ToString() + " IS NULL";
    }
    return "?";
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr final : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expression(Kind::kBinary),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Row& row, const Schema& schema) const override {
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      return EvaluateLogical(row, schema);
    }
    PPDB_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
    PPDB_ASSIGN_OR_RETURN(Value b, rhs_->Evaluate(row, schema));
    if (a.is_null() || b.is_null()) return Value::Null();
    switch (op_) {
      case BinaryOp::kEq:
        return Value::Bool(a == b);
      case BinaryOp::kNe:
        return Value::Bool(!(a == b));
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        PPDB_ASSIGN_OR_RETURN(int cmp, a.Compare(b));
        switch (op_) {
          case BinaryOp::kLt:
            return Value::Bool(cmp < 0);
          case BinaryOp::kLe:
            return Value::Bool(cmp <= 0);
          case BinaryOp::kGt:
            return Value::Bool(cmp > 0);
          default:
            return Value::Bool(cmp >= 0);
        }
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        return EvaluateArithmetic(a, b);
      default:
        return Status::Internal("unhandled binary op");
    }
  }

  std::string ToString() const override {
    return StrCat({"(", lhs_->ToString(), " ", BinaryOpSymbol(op_), " ",
                   rhs_->ToString(), ")"});
  }

 private:
  // SQL three-valued logic: null AND false = false, null OR true = true.
  Result<Value> EvaluateLogical(const Row& row, const Schema& schema) const {
    PPDB_ASSIGN_OR_RETURN(Value a, lhs_->Evaluate(row, schema));
    PPDB_ASSIGN_OR_RETURN(Value b, rhs_->Evaluate(row, schema));
    auto as_tristate = [](const Value& v) -> Result<int> {
      if (v.is_null()) return -1;  // unknown
      PPDB_ASSIGN_OR_RETURN(bool b2, v.AsBool());
      return b2 ? 1 : 0;
    };
    PPDB_ASSIGN_OR_RETURN(int ta, as_tristate(a));
    PPDB_ASSIGN_OR_RETURN(int tb, as_tristate(b));
    if (op_ == BinaryOp::kAnd) {
      if (ta == 0 || tb == 0) return Value::Bool(false);
      if (ta == 1 && tb == 1) return Value::Bool(true);
      return Value::Null();
    }
    if (ta == 1 || tb == 1) return Value::Bool(true);
    if (ta == 0 && tb == 0) return Value::Bool(false);
    return Value::Null();
  }

  Result<Value> EvaluateArithmetic(const Value& a, const Value& b) const {
    bool both_int =
        a.type() == DataType::kInt64 && b.type() == DataType::kInt64;
    PPDB_ASSIGN_OR_RETURN(double da, a.AsNumeric());
    PPDB_ASSIGN_OR_RETURN(double db, b.AsNumeric());
    if (op_ == BinaryOp::kDiv) {
      if (db == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(da / db);
    }
    double result = op_ == BinaryOp::kAdd   ? da + db
                    : op_ == BinaryOp::kSub ? da - db
                                            : da * db;
    if (both_int) return Value::Int64(static_cast<int64_t>(result));
    return Value::Double(result);
  }

  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace

ExprPtr Lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}

ExprPtr Unary(UnaryOp op, ExprPtr operand) {
  return std::make_shared<UnaryExpr>(op, std::move(operand));
}

ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) { return Unary(UnaryOp::kNot, std::move(a)); }
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
ExprPtr IsNull(ExprPtr a) { return Unary(UnaryOp::kIsNull, std::move(a)); }

}  // namespace ppdb::rel
