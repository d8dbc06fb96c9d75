# Fixture: raw-lambda-predicate fires on lambdas handed to predicate
# methods, and spares declarative expressions.
# expect: raw-lambda-predicate
# expect: raw-lambda-predicate


def bad(query):
    return query.where(lambda row: row["age"] > 40)


def also_bad(frame):
    return frame.subset(predicate=lambda f: f["age"] > 40)


def blessed_expression(query, col):
    return query.where(col("age") > 40)

